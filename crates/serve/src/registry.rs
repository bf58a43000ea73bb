//! The engine registry: compiles each registered model once per batch
//! bucket and shares the immutable engines across server threads.
//!
//! All buckets of all models are compiled through one [`BoltCompiler`],
//! so the profiler's workload cache (and the PR-1 on-disk autotune cache,
//! when `BoltConfig::cache_path` is set) is shared: a GEMM tuned for the
//! batch-8 bucket is not re-tuned for batch-8 of another model, and a
//! warm cache makes registration measure nothing.
//!
//! The registry also keeps each model's graph **builder** (`batch` →
//! graph), which is what lets the online engine manager compile new
//! buckets after registration and hot-swap them in: a swap replaces the
//! whole `Arc<ModelEngines>` under the write lock, so lookups always see
//! a fully-built value — never a half-updated bucket list.

use std::collections::HashMap;
use std::sync::Arc;

use bolt::runtime::TuningSummary;
use bolt::{logical_dims, BoltCompiler, BoltConfig, ExecutionPlan};
use bolt_gpu_sim::GpuArch;
use bolt_graph::{Graph, OpKind};
use bolt_models::try_model_by_name;
use bolt_tensor::Tensor;
use parking_lot::RwLock;

use crate::error::ServeError;
use crate::online::Acquired;
use crate::Result;

/// A stored graph builder: `batch` → inference graph at that batch size.
pub type GraphBuilder = Arc<dyn Fn(usize) -> Graph + Send + Sync>;

/// The compiled engines backing one served model: one immutable
/// [`ExecutionPlan`] per batch bucket — constants already prepacked into
/// kernel-native layouts, buffer slots planned, so workers pay no
/// per-request compile-time work.
///
/// A dynamically-registered model may start with **zero** buckets; the
/// online engine manager fills them in as traffic arrives.
#[derive(Debug)]
pub struct ModelEngines {
    name: String,
    /// Logical (NCHW for rank 4) dims of one sample's inputs, batch 1.
    sample_dims: Vec<Vec<usize>>,
    /// `(bucket_size, engine)`, ascending by bucket size.
    buckets: Vec<(usize, Arc<ExecutionPlan>)>,
    /// True when every graph constant carries data, so batches can be
    /// executed functionally, not only priced.
    functional: bool,
}

impl ModelEngines {
    /// Registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True when the model executes functionally (materialized params).
    pub fn functional(&self) -> bool {
        self.functional
    }

    /// The compiled bucket sizes, ascending.
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.buckets.iter().map(|(b, _)| *b).collect()
    }

    /// The largest compiled bucket — the model's effective max batch.
    /// Zero for a dynamic model whose first bucket has not compiled yet.
    pub fn max_batch(&self) -> usize {
        self.buckets.last().map(|(b, _)| *b).unwrap_or(0)
    }

    /// Whether an engine exists for exactly this bucket size.
    pub fn has_bucket(&self, bucket: usize) -> bool {
        self.buckets.iter().any(|(b, _)| *b == bucket)
    }

    /// Logical per-sample input shapes (batch dimension 1).
    pub fn sample_dims(&self) -> &[Vec<usize>] {
        &self.sample_dims
    }

    /// The engine a batch of `batch` samples runs on in a single launch:
    /// the smallest bucket that fits (the batch is padded up to it).
    /// `None` when the batch exceeds every compiled bucket or no bucket
    /// exists yet — callers that can split use
    /// [`ModelEngines::placement_for`] instead.
    pub fn engine_for(&self, batch: usize) -> Option<(usize, Arc<ExecutionPlan>)> {
        self.buckets
            .iter()
            .find(|(size, _)| *size >= batch)
            .map(|(size, engine)| (*size, Arc::clone(engine)))
    }

    /// Places a batch on an engine, splitting explicitly on overflow.
    ///
    /// A batch that fits some bucket runs in one launch on the smallest
    /// fitting bucket. A batch larger than every bucket is split into
    /// `ceil(batch / largest)` launches of the largest bucket — reported
    /// in [`Acquired::launches`] so callers can count the overflow
    /// instead of silently under-pricing it. The placement is neither a
    /// fallback nor degraded; the online manager marks its own. `None`
    /// only when the model has no compiled buckets at all.
    pub fn placement_for(&self, batch: usize) -> Option<Acquired> {
        let (bucket, engine, launches) = match self.engine_for(batch) {
            Some((bucket, engine)) => (bucket, engine, 1),
            None => {
                let (bucket, engine) = self.buckets.last()?;
                (*bucket, Arc::clone(engine), batch.div_ceil(*bucket))
            }
        };
        Some(Acquired {
            bucket,
            engine,
            launches,
            fallback: false,
            degraded: false,
        })
    }

    /// Peak intermediate memory a worker needs for this model: the
    /// largest bucket's planned workspace
    /// ([`ExecutionPlan::workspace_bytes`]).
    pub fn workspace_bytes(&self) -> u64 {
        self.buckets
            .iter()
            .map(|(_, engine)| engine.workspace_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Memory the model's engines keep resident: the sum of every
    /// bucket's [`ExecutionPlan::resident_bytes`].
    pub fn resident_bytes(&self) -> u64 {
        self.buckets
            .iter()
            .map(|(_, engine)| engine.resident_bytes())
            .sum()
    }

    /// Checks one request's inputs against the sample signature.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidInput`] naming expected vs. got.
    pub fn validate_sample(&self, inputs: &[Tensor]) -> Result<()> {
        if inputs.len() != self.sample_dims.len() {
            return Err(ServeError::InvalidInput {
                model: self.name.clone(),
                reason: format!(
                    "expected {} inputs, got {}",
                    self.sample_dims.len(),
                    inputs.len()
                ),
            });
        }
        for (i, (tensor, want)) in inputs.iter().zip(&self.sample_dims).enumerate() {
            let got = logical_dims(tensor);
            if &got != want {
                return Err(ServeError::InvalidInput {
                    model: self.name.clone(),
                    reason: format!("input {i}: expected shape {want:?}, got {got:?}"),
                });
            }
        }
        Ok(())
    }

    /// A copy of this value with `engine` present at `bucket` (replacing
    /// any engine already there), bucket order maintained.
    fn with_bucket(&self, bucket: usize, engine: Arc<ExecutionPlan>) -> ModelEngines {
        let mut buckets: Vec<(usize, Arc<ExecutionPlan>)> = self
            .buckets
            .iter()
            .filter(|(b, _)| *b != bucket)
            .cloned()
            .collect();
        buckets.push((bucket, engine));
        buckets.sort_by_key(|(b, _)| *b);
        ModelEngines {
            name: self.name.clone(),
            sample_dims: self.sample_dims.clone(),
            buckets,
            functional: self.functional,
        }
    }

    /// A copy of this value without `bucket`.
    fn without_bucket(&self, bucket: usize) -> ModelEngines {
        ModelEngines {
            name: self.name.clone(),
            sample_dims: self.sample_dims.clone(),
            buckets: self
                .buckets
                .iter()
                .filter(|(b, _)| *b != bucket)
                .cloned()
                .collect(),
            functional: self.functional,
        }
    }
}

/// Compiles and stores engines for every served model.
pub struct EngineRegistry {
    compiler: BoltCompiler,
    models: RwLock<HashMap<String, Arc<ModelEngines>>>,
    /// Graph builders by model name, kept so new buckets can be compiled
    /// after registration (online tuning, hot-swap).
    builders: RwLock<HashMap<String, GraphBuilder>>,
}

impl std::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRegistry")
            .field("compiler", &self.compiler)
            .field("models", &self.models)
            .finish_non_exhaustive()
    }
}

impl EngineRegistry {
    /// Creates a registry compiling for `arch` with `config` (set
    /// `config.cache_path` to make registration warm across processes).
    pub fn new(arch: GpuArch, config: BoltConfig) -> Self {
        EngineRegistry {
            compiler: BoltCompiler::new(arch, config),
            models: RwLock::new(HashMap::new()),
            builders: RwLock::new(HashMap::new()),
        }
    }

    /// The shared compiler (e.g. to inspect profiler statistics).
    pub fn compiler(&self) -> &BoltCompiler {
        &self.compiler
    }

    /// The architecture every engine in this registry is compiled for.
    pub fn arch(&self) -> &GpuArch {
        self.compiler.arch()
    }

    /// Registers a `bolt-models` zoo model by name, compiling one engine
    /// per bucket size. Re-registering a name replaces its engines.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for a name the zoo does not know,
    /// [`ServeError::InvalidInput`] for an empty bucket list, or
    /// [`ServeError::Compile`] when a bucket fails to compile.
    pub fn register_zoo(&self, name: &str, buckets: &[usize]) -> Result<Arc<ModelEngines>> {
        if try_model_by_name(name, 1).is_none() {
            return Err(ServeError::UnknownModel { name: name.into() });
        }
        let owned = name.to_string();
        self.register_with(name, buckets, move |batch| {
            try_model_by_name(&owned, batch)
                .expect("existence checked above; zoo lookup is batch-independent")
                .graph
        })
    }

    /// Registers a `bolt-models` zoo model with **no precompiled
    /// buckets**: engines are compiled on demand by the online engine
    /// manager as unseen batch shapes arrive.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for a name the zoo does not know.
    pub fn register_zoo_dynamic(&self, name: &str) -> Result<Arc<ModelEngines>> {
        if try_model_by_name(name, 1).is_none() {
            return Err(ServeError::UnknownModel { name: name.into() });
        }
        let owned = name.to_string();
        self.register_dynamic(name, move |batch| {
            try_model_by_name(&owned, batch)
                .expect("existence checked above; zoo lookup is batch-independent")
                .graph
        })
    }

    /// Registers a model from a graph-builder callback (`batch` →
    /// inference graph at that batch size), compiling one engine per
    /// bucket. This is the hook for models outside the zoo.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] for an empty bucket list, or
    /// [`ServeError::Compile`] when a bucket fails to compile.
    pub fn register_with(
        &self,
        name: &str,
        buckets: &[usize],
        build: impl Fn(usize) -> Graph + Send + Sync + 'static,
    ) -> Result<Arc<ModelEngines>> {
        let mut sizes: Vec<usize> = buckets.iter().copied().filter(|&b| b > 0).collect();
        sizes.sort_unstable();
        sizes.dedup();
        if sizes.is_empty() {
            return Err(ServeError::InvalidInput {
                model: name.into(),
                reason: "at least one positive batch bucket is required".into(),
            });
        }
        self.register_inner(name, &sizes, Arc::new(build))
    }

    /// Registers a model from a graph-builder callback with no
    /// precompiled buckets (see [`EngineRegistry::register_zoo_dynamic`]).
    pub fn register_dynamic(
        &self,
        name: &str,
        build: impl Fn(usize) -> Graph + Send + Sync + 'static,
    ) -> Result<Arc<ModelEngines>> {
        self.register_inner(name, &[], Arc::new(build))
    }

    fn register_inner(
        &self,
        name: &str,
        sizes: &[usize],
        build: GraphBuilder,
    ) -> Result<Arc<ModelEngines>> {
        let probe = build(1);
        let sample_dims: Vec<Vec<usize>> = probe
            .input_ids()
            .iter()
            .map(|&id| probe.node(id).shape.dims().to_vec())
            .collect();
        let functional = probe
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Constant { .. }))
            .all(|n| probe.param(n.id).is_some());

        let mut compiled = Vec::with_capacity(sizes.len());
        for &bucket in sizes {
            let model = self.compiler.compile(&build(bucket))?;
            compiled.push((bucket, Arc::clone(model.plan())));
        }

        let engines = Arc::new(ModelEngines {
            name: name.to_string(),
            sample_dims,
            buckets: compiled,
            functional,
        });
        self.builders.write().insert(name.to_string(), build);
        self.models
            .write()
            .insert(name.to_string(), Arc::clone(&engines));
        Ok(engines)
    }

    /// The stored graph builder for `name`, if registered.
    pub fn builder(&self, name: &str) -> Option<GraphBuilder> {
        self.builders.read().get(name).cloned()
    }

    /// Compiles a fully-profiled engine for one `(model, bucket)` through
    /// the shared compiler (warm autotune cache). Does **not** install
    /// the engine — pair with [`EngineRegistry::insert_bucket`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] when no builder is stored for `name`,
    /// [`ServeError::Compile`] on compilation failure.
    pub fn compile_bucket(
        &self,
        name: &str,
        bucket: usize,
    ) -> Result<(Arc<ExecutionPlan>, TuningSummary)> {
        let build = self
            .builder(name)
            .ok_or_else(|| ServeError::UnknownModel { name: name.into() })?;
        let model = self.compiler.compile(&build(bucket))?;
        Ok((Arc::clone(model.plan()), model.tuning))
    }

    /// Compiles a **heuristic default-config** engine for one `(model,
    /// bucket)`: no profiling, zero tuning time, shared autotune cache
    /// untouched. The serving layer's immediate fallback for a shape
    /// that has never been tuned.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] when no builder is stored for `name`,
    /// [`ServeError::Compile`] on compilation failure.
    pub fn compile_heuristic_bucket(
        &self,
        name: &str,
        bucket: usize,
    ) -> Result<Arc<ExecutionPlan>> {
        let build = self
            .builder(name)
            .ok_or_else(|| ServeError::UnknownModel { name: name.into() })?;
        let model = self.compiler.compile_heuristic(&build(bucket))?;
        Ok(Arc::clone(model.plan()))
    }

    /// Hot-swaps `engine` in as `name`'s engine for `bucket` (replacing
    /// any engine already at that bucket). The registry entry is replaced
    /// wholesale — a rebuilt [`ModelEngines`] swapped under the write
    /// lock — so concurrent lookups see either the old or the new value,
    /// both complete.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] when `name` is not registered.
    pub fn insert_bucket(
        &self,
        name: &str,
        bucket: usize,
        engine: Arc<ExecutionPlan>,
    ) -> Result<Arc<ModelEngines>> {
        let mut models = self.models.write();
        let current = models
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel { name: name.into() })?;
        let next = Arc::new(current.with_bucket(bucket, engine));
        models.insert(name.to_string(), Arc::clone(&next));
        Ok(next)
    }

    /// Removes `name`'s engine for `bucket` (eviction), same wholesale
    /// swap as [`EngineRegistry::insert_bucket`]. A no-op when the bucket
    /// does not exist.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] when `name` is not registered.
    pub fn remove_bucket(&self, name: &str, bucket: usize) -> Result<Arc<ModelEngines>> {
        let mut models = self.models.write();
        let current = models
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel { name: name.into() })?;
        let next = Arc::new(current.without_bucket(bucket));
        models.insert(name.to_string(), Arc::clone(&next));
        Ok(next)
    }

    /// Looks a registered model up by name.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEngines>> {
        self.models.read().get(name).cloned()
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.models.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// `(model, workspace_bytes)` per registered model, sorted by name —
    /// the peak intermediate memory each model's largest bucket plans.
    pub fn workspaces(&self) -> Vec<(String, u64)> {
        let mut ws: Vec<(String, u64)> = self
            .models
            .read()
            .iter()
            .map(|(name, engines)| (name.clone(), engines.workspace_bytes()))
            .collect();
        ws.sort();
        ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_tensor::DType;

    fn registry() -> EngineRegistry {
        EngineRegistry::new(crate::testing::test_arch(), BoltConfig::default())
    }

    #[test]
    fn zoo_registration_compiles_every_bucket() {
        let reg = registry();
        let engines = reg.register_zoo("mlp-small", &[1, 2, 4]).expect("register");
        assert_eq!(engines.bucket_sizes(), vec![1, 2, 4]);
        assert_eq!(engines.max_batch(), 4);
        assert!(engines.functional(), "serving MLPs materialize params");
        assert_eq!(engines.sample_dims(), &[vec![1, 128]]);
        assert_eq!(reg.names(), vec!["mlp-small".to_string()]);
    }

    #[test]
    fn unknown_zoo_model_is_a_typed_error() {
        let err = registry().register_zoo("alexnet", &[1]).unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel { .. }));
        assert!(registry().get("alexnet").is_none());
        let err = registry().register_zoo_dynamic("alexnet").unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel { .. }));
    }

    #[test]
    fn empty_buckets_are_rejected() {
        let err = registry().register_zoo("mlp-small", &[0]).unwrap_err();
        assert!(matches!(err, ServeError::InvalidInput { .. }));
    }

    #[test]
    fn engine_for_picks_smallest_fitting_bucket() {
        let reg = registry();
        let engines = reg.register_zoo("mlp-small", &[1, 4, 8]).expect("register");
        assert_eq!(engines.engine_for(1).unwrap().0, 1);
        assert_eq!(engines.engine_for(3).unwrap().0, 4);
        assert_eq!(engines.engine_for(8).unwrap().0, 8);
        // Oversized batches no longer clamp silently: single-launch
        // lookup refuses, placement splits explicitly.
        assert!(engines.engine_for(64).is_none());
        let placement = engines.placement_for(64).expect("buckets exist");
        assert_eq!(placement.bucket, 8);
        assert_eq!(placement.launches, 8);
        let fits = engines.placement_for(3).expect("buckets exist");
        assert_eq!((fits.bucket, fits.launches), (4, 1));
    }

    #[test]
    fn dynamic_registration_starts_with_zero_buckets() {
        let reg = registry();
        let engines = reg.register_zoo_dynamic("mlp-small").expect("register");
        assert_eq!(engines.bucket_sizes(), Vec::<usize>::new());
        assert_eq!(engines.max_batch(), 0);
        assert!(engines.engine_for(1).is_none());
        assert!(engines.placement_for(1).is_none());
        assert_eq!(engines.sample_dims(), &[vec![1, 128]]);
        assert!(reg.builder("mlp-small").is_some());
    }

    #[test]
    fn insert_and_remove_bucket_swap_whole_engines() {
        let reg = registry();
        let before = reg.register_zoo_dynamic("mlp-small").expect("register");
        let (plan, tuning) = reg.compile_bucket("mlp-small", 4).expect("compile");
        assert!(tuning.workloads >= 1);
        let after = reg.insert_bucket("mlp-small", 4, plan).expect("insert");
        assert_eq!(after.bucket_sizes(), vec![4]);
        // The pre-swap snapshot is untouched; fresh lookups see the swap.
        assert_eq!(before.bucket_sizes(), Vec::<usize>::new());
        assert_eq!(reg.get("mlp-small").unwrap().bucket_sizes(), vec![4]);

        let removed = reg.remove_bucket("mlp-small", 4).expect("remove");
        assert_eq!(removed.bucket_sizes(), Vec::<usize>::new());
        assert_eq!(
            reg.get("mlp-small").unwrap().bucket_sizes(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn heuristic_bucket_compiles_without_touching_shared_cache() {
        let reg = registry();
        reg.register_zoo_dynamic("mlp-small").expect("register");
        let before = reg.compiler().profiler().stats();
        let plan = reg
            .compile_heuristic_bucket("mlp-small", 2)
            .expect("heuristic compile");
        assert!(plan.resident_bytes() > 0);
        let after = reg.compiler().profiler().stats();
        assert_eq!(before, after, "heuristic compile must not profile");
    }

    #[test]
    fn bucket_ops_on_unknown_model_are_typed_errors() {
        let reg = registry();
        assert!(matches!(
            reg.compile_bucket("nope", 1),
            Err(ServeError::UnknownModel { .. })
        ));
        let plan = {
            reg.register_zoo("mlp-small", &[1]).expect("register");
            reg.get("mlp-small").unwrap().engine_for(1).unwrap().1
        };
        assert!(matches!(
            reg.insert_bucket("nope", 1, plan),
            Err(ServeError::UnknownModel { .. })
        ));
        assert!(matches!(
            reg.remove_bucket("nope", 1),
            Err(ServeError::UnknownModel { .. })
        ));
    }

    #[test]
    fn validate_sample_names_expected_vs_got() {
        let reg = registry();
        let engines = reg.register_zoo("mlp-small", &[1]).expect("register");
        let ok = Tensor::randn(&[1, 128], DType::F16, 1);
        assert!(engines.validate_sample(std::slice::from_ref(&ok)).is_ok());
        let bad = Tensor::randn(&[1, 64], DType::F16, 1);
        let err = engines.validate_sample(&[bad]).unwrap_err();
        match err {
            ServeError::InvalidInput { reason, .. } => {
                assert!(reason.contains("128") && reason.contains("64"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(engines.validate_sample(&[]).is_err());
    }
}
