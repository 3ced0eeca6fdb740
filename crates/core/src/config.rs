//! Engine configuration, presets, and the ablation ladder.
//!
//! One configurable engine covers the whole spectrum the paper evaluates:
//! with every optimization off and a single tier it behaves like DeepSpeed
//! ZeRO-3 + DeepNVMe (Fig. 6 top); progressively enabling the three design
//! principles and multi-path I/O reproduces the Fig. 14/15 ablation and
//! ends at full MLP-Offload (Fig. 6 bottom).
//!
//! Mirroring §3.5 ("MLP-Offload can be enabled and configured via two JSON
//! key-value pairs in the DeepSpeed runtime configuration"), a config can
//! be parsed from a DeepSpeed-style JSON snippet, e.g.:
//!
//! ```json
//! { "mlp_offload": { "tiers": ["/local/nvme", "/lustre/run"], "ratio": "2:1" } }
//! ```

use mlp_trace::json::{self, Value};
use mlp_trace::TraceSink;

use crate::policy::allocation::parse_ratio;
use crate::policy::ordering::OrderPolicy;

/// Full engine configuration.
///
/// A tier's I/O (worker count, queue depth, retry, deadline, breaker) is
/// not configured here: it is a property of the tier
/// (`SharedTier::with_aio`).
#[derive(Clone, Debug, PartialEq)]
pub struct EngineConfig {
    /// Subgroup processing order per iteration.
    pub order: OrderPolicy,
    /// Whether surplus host frames retain subgroups across iterations
    /// ("Enable Caching").
    pub cache_retention: bool,
    /// Total host frames per worker (subgroup-sized pinned buffers). At
    /// least 3 are used for the pipeline regardless; with "Enable
    /// Caching" subgroups rest in host memory between update phases. The
    /// budget is on what *rests*, not on the pipeline's depth. The
    /// functional engine rests subgroups in all of its frames: the
    /// pipeline needs three only while an update runs, and the
    /// iteration's certain evictions free them before it does. Its
    /// prefetch window borrows every frame that is not holding a retained
    /// subgroup at that moment (DESIGN.md §7), so a larger budget also
    /// means a deeper window. The virtual-time engine's frames are
    /// semaphore permits, so its subgroups rest only in the frames beyond
    /// the pipeline's three.
    pub host_frames: usize,
    /// Keep FP16 gradients in host memory and upscale during the update
    /// ("Skip Gradients" / delayed in-place conversion). When `false`,
    /// gradients are eagerly upscaled to FP32 during the backward pass and
    /// moved through storage like DeepSpeed does.
    pub skip_gradient_offload: bool,
    /// Node-level tier-exclusive locking ("Process Atomic R/W").
    pub tier_exclusive_locking: bool,
    /// Re-estimate tier bandwidths from observed transfers each iteration
    /// (§3.3 adaptation).
    pub adaptive_bandwidth: bool,
    /// Migration budget of the adaptive planner: how many subgroups'
    /// durable copies one iteration boundary may move between tiers to
    /// chase the live Eq. 1 split. 0 (the default, and both presets)
    /// disables migration — adaptive mode then only re-splits flush
    /// writes, exactly the pre-planner behaviour. Only meaningful with
    /// `adaptive_bandwidth`.
    pub max_migrations_per_iter: usize,
    /// Optional user-specified tier weights overriding measured bandwidths
    /// (the "2:1" split of §3.5). `None` uses measured bandwidths (Eq. 1).
    pub tier_ratio: Option<Vec<f64>>,
    /// Let optimizer-state flushes started during the update phase drain
    /// lazily into the *next* iteration's forward/backward window instead
    /// of being awaited before the update returns (§3.4's lazy flushing,
    /// made visible on the timeline). Off in both presets so the
    /// reproduction numbers are unchanged; the `repro --trace` driver
    /// enables it for the MLP-Offload engine to demonstrate the Figure 5
    /// flush/backward overlap. Only the virtual-time engine honours it:
    /// the functional engine always settles its flushes before `update`
    /// returns and ignores this field.
    pub deferred_flush_drain: bool,
    /// Observability sink (disabled by default = zero cost). A trace is
    /// a per-run artifact, not a preset; disabled sinks compare equal, so
    /// config equality between presets still holds.
    pub trace: TraceSink,
}

impl EngineConfig {
    /// The DeepSpeed ZeRO-3 + DeepNVMe baseline: sequential order, cache
    /// thrashing, eager FP32 gradient offload, uncoordinated tier access.
    /// Combine with a single (NVMe) tier.
    pub fn deepspeed_zero3() -> Self {
        EngineConfig {
            order: OrderPolicy::Ascending,
            cache_retention: false,
            host_frames: 3,
            skip_gradient_offload: false,
            tier_exclusive_locking: false,
            adaptive_bandwidth: false,
            max_migrations_per_iter: 0,
            tier_ratio: None,
            deferred_flush_drain: false,
            trace: TraceSink::disabled(),
        }
    }

    /// Full MLP-Offload: all four design principles on.
    pub fn mlp_offload() -> Self {
        EngineConfig {
            order: OrderPolicy::Alternating,
            cache_retention: true,
            host_frames: 3,
            skip_gradient_offload: true,
            tier_exclusive_locking: true,
            adaptive_bandwidth: true,
            max_migrations_per_iter: 0,
            tier_ratio: None,
            deferred_flush_drain: false,
            trace: TraceSink::disabled(),
        }
    }

    /// Attaches an observability sink (see [`mlp_trace`]); every engine
    /// built from this config records its phases and I/O through it.
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the host frame budget (from the memory estimator).
    pub fn with_host_frames(mut self, frames: usize) -> Self {
        self.host_frames = frames;
        self
    }

    /// Sets an explicit tier ratio (e.g. from `"2:1"`).
    pub fn with_tier_ratio(mut self, ratio: Vec<f64>) -> Self {
        self.tier_ratio = Some(ratio);
        self
    }

    /// Enables full adaptive re-planning: live bandwidth estimation plus
    /// a per-iteration-boundary budget of durable-copy migrations between
    /// tiers (0 keeps migration off; flush writes still re-split on the
    /// live estimates whenever `adaptive_bandwidth` is on).
    pub fn with_adaptive_replan(mut self, max_migrations_per_iter: usize) -> Self {
        self.adaptive_bandwidth = true;
        self.max_migrations_per_iter = max_migrations_per_iter;
        self
    }

    /// Parses the §3.5 DeepSpeed-style JSON configuration. Returns the
    /// engine config plus the tier directory list. Anything but an object
    /// with an `mlp_offload` object holding `tiers` (a non-empty array of
    /// strings) and optionally `ratio` (a string) is an `Err` naming the
    /// offending key; other keys are ignored, as DeepSpeed's are here.
    pub fn from_deepspeed_json(text: &str) -> Result<(Self, Vec<String>), String> {
        let root = json::parse(text).map_err(|e| format!("bad mlp_offload config: {e}"))?;
        if !matches!(root, Value::Obj(_)) {
            return Err("bad mlp_offload config: the document root must be an object".into());
        }
        let section = match root.get("mlp_offload") {
            Some(section @ Value::Obj(_)) => section,
            Some(_) => return Err("mlp_offload must be an object".into()),
            None => return Err("missing key mlp_offload".into()),
        };
        let tiers: Vec<String> = section
            .get("tiers")
            .and_then(Value::as_array)
            .and_then(|dirs| dirs.iter().map(|d| d.as_str().map(str::to_owned)).collect())
            .ok_or("mlp_offload.tiers must be an array of directory strings")?;
        if tiers.is_empty() {
            return Err("mlp_offload.tiers must list at least one directory".into());
        }
        let mut cfg = EngineConfig::mlp_offload();
        match section.get("ratio") {
            None | Some(Value::Null) => {}
            Some(Value::Str(r)) => {
                let weights = parse_ratio(r).map_err(|e| format!("mlp_offload.ratio {e}"))?;
                if weights.len() != tiers.len() {
                    return Err(format!(
                        "mlp_offload.ratio {r:?} has {} components for {} tiers",
                        weights.len(),
                        tiers.len()
                    ));
                }
                cfg.tier_ratio = Some(weights);
            }
            Some(_) => return Err("mlp_offload.ratio must be a string like \"2:1\"".into()),
        }
        Ok((cfg, tiers))
    }
}

/// The Fig. 14/15 progressive-activation ladder. Each stage includes all
/// previous ones; the declaration order is the ladder's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AblationStage {
    /// DeepSpeed ZeRO-3 baseline.
    Baseline,
    /// + cache-friendly subgroup reordering.
    EnableCaching,
    /// + delayed in-place mixed-precision gradient conversion.
    SkipGradients,
    /// + tier-exclusive concurrency control (= full MLP-Offload when
    ///   multi-path tiers are configured).
    ProcessAtomicRw,
}

impl AblationStage {
    /// All stages in activation order.
    pub fn ladder() -> [AblationStage; 4] {
        [
            AblationStage::Baseline,
            AblationStage::EnableCaching,
            AblationStage::SkipGradients,
            AblationStage::ProcessAtomicRw,
        ]
    }

    /// The engine configuration with this stage's optimizations active.
    pub fn config(self) -> EngineConfig {
        let mut cfg = EngineConfig::deepspeed_zero3();
        if self >= AblationStage::EnableCaching {
            cfg.order = OrderPolicy::Alternating;
            cfg.cache_retention = true;
        }
        if self >= AblationStage::SkipGradients {
            cfg.skip_gradient_offload = true;
        }
        if self >= AblationStage::ProcessAtomicRw {
            cfg.tier_exclusive_locking = true;
            cfg.adaptive_bandwidth = true;
        }
        cfg
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            AblationStage::Baseline => "DeepSpeed ZeRO-3",
            AblationStage::EnableCaching => "+ Enable Caching",
            AblationStage::SkipGradients => "+ Skip Gradients",
            AblationStage::ProcessAtomicRw => "+ Process Atomic R/W",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_all_four_principles() {
        let ds = EngineConfig::deepspeed_zero3();
        let mlp = EngineConfig::mlp_offload();
        assert_ne!(ds.order, mlp.order);
        assert!(!ds.cache_retention && mlp.cache_retention);
        assert!(!ds.skip_gradient_offload && mlp.skip_gradient_offload);
        assert!(!ds.tier_exclusive_locking && mlp.tier_exclusive_locking);
    }

    #[test]
    fn ablation_ladder_is_monotone() {
        let ladder = AblationStage::ladder();
        for w in ladder.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(ladder[0].config(), EngineConfig::deepspeed_zero3());
        let top = ladder[3].config();
        let mlp = EngineConfig::mlp_offload();
        assert_eq!(top, mlp);
    }

    #[test]
    fn json_config_parses_tiers_and_ratio() {
        let json =
            r#"{ "mlp_offload": { "tiers": ["/local/nvme", "/lustre/run"], "ratio": "2:1" } }"#;
        let (cfg, tiers) = EngineConfig::from_deepspeed_json(json).unwrap();
        assert_eq!(tiers, vec!["/local/nvme", "/lustre/run"]);
        assert_eq!(cfg.tier_ratio, Some(vec![2.0, 1.0]));
        assert!(cfg.skip_gradient_offload);
    }

    #[test]
    fn json_config_without_ratio_uses_measured_bandwidths() {
        let json = r#"{ "mlp_offload": { "tiers": ["/a"] } }"#;
        let (cfg, tiers) = EngineConfig::from_deepspeed_json(json).unwrap();
        assert_eq!(tiers.len(), 1);
        assert_eq!(cfg.tier_ratio, None);
    }

    #[test]
    fn json_config_rejects_mismatched_ratio() {
        let json = r#"{ "mlp_offload": { "tiers": ["/a", "/b", "/c"], "ratio": "2:1" } }"#;
        assert!(EngineConfig::from_deepspeed_json(json).is_err());
        let json = r#"{ "mlp_offload": { "tiers": [] } }"#;
        assert!(EngineConfig::from_deepspeed_json(json).is_err());
    }

    #[test]
    fn json_config_rejects_malformed_documents_naming_the_key() {
        let too_deep = "[".repeat(1_000_000);
        let cases = [
            (too_deep.as_str(), "nesting deeper than 128 levels"),
            (r#"["mlp_offload"]"#, "root must be an object"),
            (r#"{ "zero_optimization": {} }"#, "missing key mlp_offload"),
            (r#"{ "mlp_offload": "on" }"#, "mlp_offload must be an object"),
            (r#"{ "mlp_offload": {} }"#, "mlp_offload.tiers"),
            (r#"{ "mlp_offload": { "tiers": "/a" } }"#, "mlp_offload.tiers"),
            (r#"{ "mlp_offload": { "tiers": ["/a", 7] } }"#, "mlp_offload.tiers"),
            (r#"{ "mlp_offload": { "tiers": ["/a", "/b"], "ratio": 2 } }"#, "mlp_offload.ratio"),
            (r#"{ "mlp_offload": { "tiers": ["/a"], "ratio": "x" } }"#, "mlp_offload.ratio"),
            (r#"{ "mlp_offload": { "tiers": ["/a", "/b"], "ratio": "inf:1" } }"#, "mlp_offload.ratio"),
            (r#"{ "mlp_offload": { "tiers": ["/a", "/b"], "ratio": "1e309:1" } }"#, "mlp_offload.ratio"),
            (r#"{ "mlp_offload": { "tiers": ["/a"] } } trailing"#, "trailing data"),
            (r#"{ "mlp_offload": { "tiers": ["/a"] }"#, "JSON parse error"),
            ("", "JSON parse error"),
        ];
        for (json, needle) in cases {
            let shown = &json[..json.len().min(80)];
            let err = EngineConfig::from_deepspeed_json(json).expect_err(shown);
            assert!(err.contains(needle), "{shown:?} gave {err:?}, expected it to name {needle:?}");
        }
    }
}
