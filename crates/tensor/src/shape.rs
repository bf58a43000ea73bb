//! Dense tensor shapes.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Ranks up to this many are stored inline, so building a tensor of an
/// ordinary rank never allocates for its shape.
const INLINE_RANK: usize = 4;

/// The dimensions of a dense tensor, outermost first.
///
/// ```
/// use bolt_tensor::Shape;
/// let s = Shape::new(&[32, 56, 56, 64]);
/// assert_eq!(s.numel(), 32 * 56 * 56 * 64);
/// assert_eq!(s.rank(), 4);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Shape {
    dims: Dims,
}

#[derive(Clone)]
enum Dims {
    Inline {
        rank: u8,
        dims: [usize; INLINE_RANK],
    },
    Heap(Vec<usize>),
}

impl Shape {
    /// Creates a shape from a slice of dimensions.
    pub fn new(dims: &[usize]) -> Self {
        let dims = if dims.len() <= INLINE_RANK {
            let mut inline = [0; INLINE_RANK];
            inline[..dims.len()].copy_from_slice(dims);
            Dims::Inline {
                rank: dims.len() as u8,
                dims: inline,
            }
        } else {
            Dims::Heap(dims.to_vec())
        };
        Shape { dims }
    }

    /// A rank-0 (scalar) shape.
    pub fn scalar() -> Self {
        Shape::new(&[])
    }

    /// The dimensions, outermost first.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        match &self.dims {
            Dims::Inline { rank, dims } => &dims[..usize::from(*rank)],
            Dims::Heap(dims) => dims,
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.dims().len()
    }

    /// Total number of elements (1 for a scalar).
    #[inline]
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Returns dimension `i`, or an informative panic.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank()`.
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Row-major (C-contiguous) strides in elements.
    pub fn contiguous_strides(&self) -> Vec<usize> {
        let dims = self.dims();
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        strides
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Self) -> bool {
        self.dims() == other.dims()
    }
}

impl Eq for Shape {}

impl Hash for Shape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.dims().hash(state);
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shape").field("dims", &self.dims()).finish()
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn contiguous_strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.contiguous_strides(), vec![12, 4, 1]);
        let v = Shape::new(&[5]);
        assert_eq!(v.contiguous_strides(), vec![1]);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "(2, 3)");
        assert_eq!(Shape::scalar().to_string(), "()");
    }

    #[test]
    fn conversions() {
        let a: Shape = [1, 2, 3].into();
        let b: Shape = vec![1, 2, 3].into();
        assert_eq!(a, b);
    }

    #[test]
    fn ranks_past_the_inline_capacity_round_trip() {
        let dims: Vec<usize> = (1..=INLINE_RANK + 2).collect();
        let s = Shape::new(&dims);
        assert_eq!(s.dims(), &dims[..]);
        assert_eq!(s, Shape::from(dims.clone()));
        assert_ne!(s, Shape::new(&dims[..INLINE_RANK]));
    }
}
