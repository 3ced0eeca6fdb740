//! Dynamic loss scaling for mixed-precision training.
//!
//! FP16 gradients underflow easily; standard practice (Micikevicius et al.,
//! cited in §2) multiplies the loss by a scale before the backward pass and
//! divides gradients by it before the update, growing the scale while
//! training is stable and backing off on overflow.

/// Dynamic loss scaler with multiplicative growth and backoff.
#[derive(Clone, Copy, Debug)]
pub struct DynamicLossScaler {
    scale: f32,
    growth_factor: f32,
    backoff_factor: f32,
    growth_interval: u32,
    stable_steps: u32,
}

impl Default for DynamicLossScaler {
    fn default() -> Self {
        DynamicLossScaler {
            scale: 65536.0,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 2000,
            stable_steps: 0,
        }
    }
}

impl DynamicLossScaler {
    /// Creates a scaler with an explicit initial scale.
    pub fn with_scale(scale: f32) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        DynamicLossScaler {
            scale,
            ..Default::default()
        }
    }

    /// The current loss scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Multiplier to apply to gradients before the optimizer (1/scale).
    pub fn inv_scale(&self) -> f32 {
        1.0 / self.scale
    }

    /// Reports the outcome of one step. `overflowed` means a non-finite
    /// gradient was observed: the step must be skipped and the scale backs
    /// off. Returns whether the step should be applied.
    pub fn update(&mut self, overflowed: bool) -> bool {
        if overflowed {
            self.scale = (self.scale * self.backoff_factor).max(1.0);
            self.stable_steps = 0;
            false
        } else {
            self.stable_steps += 1;
            if self.stable_steps >= self.growth_interval {
                self.scale *= self.growth_factor;
                self.stable_steps = 0;
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_halves_scale_and_skips() {
        let mut s = DynamicLossScaler::with_scale(1024.0);
        assert!(!s.update(true));
        assert_eq!(s.scale(), 512.0);
    }

    #[test]
    fn growth_after_interval() {
        let mut s = DynamicLossScaler::with_scale(8.0);
        let interval = 2000;
        for _ in 0..interval {
            assert!(s.update(false));
        }
        assert_eq!(s.scale(), 16.0);
    }

    #[test]
    fn scale_never_drops_below_one() {
        let mut s = DynamicLossScaler::with_scale(1.0);
        for _ in 0..10 {
            s.update(true);
        }
        assert_eq!(s.scale(), 1.0);
    }

    #[test]
    fn overflow_resets_growth_progress() {
        let mut s = DynamicLossScaler::with_scale(8.0);
        for _ in 0..1999 {
            s.update(false);
        }
        s.update(true); // backoff at the brink of growth
        assert_eq!(s.scale(), 4.0);
        s.update(false);
        assert_eq!(s.scale(), 4.0, "growth counter must restart");
    }
}
