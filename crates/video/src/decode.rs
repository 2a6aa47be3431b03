//! Per-frame decode and render CPU costs.
//!
//! Costs are µs at the reference core (Nexus 5 Krait @ 2.33 GHz = 1.0) for
//! a *software* decode path. Devices additionally carry a video-acceleration
//! factor (`mvqoe-device`): the Nokia 1's entry-level SoC leaves the browser
//! on an effectively software path (factor 1.0), while the Nexus 5/6P SoCs
//! offload most of the H.264 work (≈ 0.55 / 0.45). This gap — larger than
//! the raw clock ratio — is what lets the paper's three devices coexist:
//!
//! * Nokia 1 (speed 0.47, accel 1.0): 1080p30 ≈ 41 ms vs a 33.3 ms budget
//!   → the paper's ≈ 19% drops at Normal (Fig. 9); 1080p60 is hopeless.
//! * Nexus 5 (1.0, 0.55): 1080p60 ≈ 10.7 ms vs 16.7 ms → clean at Normal;
//!   drops appear only when daemons steal the margin (Fig. 11).
//! * Nexus 6P (big core 0.86, 0.45): 1080p60 ≈ 10.1 ms — clean at Normal,
//!   ≈ 9% drops under pressure (§4.3).

use crate::ladder::{Genre, Representation};
use crate::players::PlayerProfile;
use mvqoe_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Decode/render cost parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DecodeCostModel {
    /// Fixed per-frame decode overhead (bitstream parsing, setup), µs.
    pub decode_base_us: f64,
    /// Decode cost per pixel, µs (motion comp, deblocking, entropy).
    pub decode_per_pixel_us: f64,
    /// Fixed per-frame render/composite overhead, µs.
    pub render_base_us: f64,
    /// Render cost per pixel, µs (upload, composition).
    pub render_per_pixel_us: f64,
    /// Relative std-dev of per-frame decode cost (frame-type mix: I/P/B).
    pub frame_jitter: f64,
}

impl Default for DecodeCostModel {
    fn default() -> Self {
        DecodeCostModel {
            decode_base_us: 600.0,
            decode_per_pixel_us: 7.0e-3,
            render_base_us: 2200.0,
            render_per_pixel_us: 1.8e-3,
            frame_jitter: 0.16,
        }
    }
}

impl DecodeCostModel {
    /// Mean decode cost for one frame of `rep` in `genre` on `profile`'s
    /// decode path, µs at reference speed, scaled by the device's video
    /// acceleration factor (`accel`; 1.0 = pure software).
    pub fn mean_decode_us(
        &self,
        rep: Representation,
        genre: Genre,
        profile: &PlayerProfile,
        accel: f64,
    ) -> f64 {
        (self.decode_base_us + self.decode_per_pixel_us * rep.resolution.pixels() as f64)
            * genre.complexity()
            * profile.decode_cost_factor
            * accel
    }

    /// Sampled decode cost for one frame (adds I/P/B-frame jitter).
    pub fn sample_decode_us(
        &self,
        rep: Representation,
        genre: Genre,
        profile: &PlayerProfile,
        accel: f64,
        rng: &mut SimRng,
    ) -> f64 {
        let mean = self.mean_decode_us(rep, genre, profile, accel);
        (mean * (1.0 + self.frame_jitter * rng.std_normal())).max(mean * 0.3)
    }

    /// Render/composite cost for one frame, µs at reference speed.
    pub fn render_us(&self, rep: Representation, profile: &PlayerProfile) -> f64 {
        (self.render_base_us + self.render_per_pixel_us * rep.resolution.pixels() as f64)
            * profile.render_cost_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::{Fps, Resolution};
    use crate::players::PlayerKind;

    // The device anchors (speed, accel) used across the workspace; the
    // authoritative values live in `mvqoe-device` and are cross-checked by
    // an integration test.
    const NOKIA1: (f64, f64) = (0.47, 1.0);
    const NEXUS5: (f64, f64) = (1.0, 0.55);
    const NEXUS6P_BIG: (f64, f64) = (0.86, 0.45);

    fn rep(res: Resolution, fps: Fps) -> Representation {
        Representation::youtube(res, fps)
    }

    fn cost_on(model: &DecodeCostModel, r: Representation, dev: (f64, f64)) -> f64 {
        let ff = PlayerProfile::of(PlayerKind::Firefox);
        model.mean_decode_us(r, Genre::Travel, &ff, dev.1) / dev.0
    }

    #[test]
    fn anchor_nokia1_1080p30_drops_about_19_percent() {
        let m = DecodeCostModel::default();
        let cost = cost_on(&m, rep(Resolution::R1080p, Fps::F30), NOKIA1);
        let budget = Fps::F30.frame_period_us() as f64;
        // The *throughput* deficit alone contributes a mid-single-digit
        // floor; frame-cost jitter, render deadlines and fault stalls lift
        // the full-system figure to the paper's ≈19% (verified end-to-end
        // by the workspace integration tests and `exp fig9`).
        let drop = 1.0 - budget / cost;
        assert!(
            (0.02..=0.15).contains(&drop),
            "Nokia 1 1080p30 sustained deficit {drop:.3} (cost {cost:.0} µs)"
        );
    }

    #[test]
    fn anchor_nokia1_720p30_is_comfortable() {
        let m = DecodeCostModel::default();
        let cost = cost_on(&m, rep(Resolution::R720p, Fps::F30), NOKIA1);
        assert!(
            cost < 0.65 * Fps::F30.frame_period_us() as f64,
            "720p30 must be clean at Normal on the Nokia 1 ({cost:.0} µs)"
        );
    }

    #[test]
    fn anchor_nokia1_720p60_is_marginal() {
        let m = DecodeCostModel::default();
        let cost = cost_on(&m, rep(Resolution::R720p, Fps::F60), NOKIA1);
        let budget = Fps::F60.frame_period_us() as f64;
        assert!(
            cost > 0.95 * budget,
            "720p60 must have no slack on the Nokia 1 ({cost:.0} µs vs {budget:.0})"
        );
    }

    #[test]
    fn anchor_nexus5_1080p60_has_headroom() {
        let m = DecodeCostModel::default();
        let cost = cost_on(&m, rep(Resolution::R1080p, Fps::F60), NEXUS5);
        let budget = Fps::F60.frame_period_us() as f64;
        assert!(
            cost < 0.75 * budget,
            "Nexus 5 1080p60 must be clean at Normal ({cost:.0} µs)"
        );
        assert!(cost > 0.5 * budget, "but not trivially so ({cost:.0} µs)");
    }

    #[test]
    fn anchor_nexus6p_1080p60_has_headroom() {
        let m = DecodeCostModel::default();
        let cost = cost_on(&m, rep(Resolution::R1080p, Fps::F60), NEXUS6P_BIG);
        assert!(cost < 0.75 * Fps::F60.frame_period_us() as f64);
    }

    #[test]
    fn exoplayer_hw_decode_fits_everywhere() {
        let m = DecodeCostModel::default();
        let exo = PlayerProfile::of(PlayerKind::ExoPlayer);
        let cost = m.mean_decode_us(
            rep(Resolution::R1080p, Fps::F60),
            Genre::Travel,
            &exo,
            NOKIA1.1,
        ) / NOKIA1.0;
        assert!(cost < Fps::F60.frame_period_us() as f64);
    }

    #[test]
    fn sampling_jitters_around_mean() {
        let m = DecodeCostModel::default();
        let ff = PlayerProfile::of(PlayerKind::Firefox);
        let r = rep(Resolution::R720p, Fps::F30);
        let mean = m.mean_decode_us(r, Genre::Travel, &ff, 1.0);
        let mut rng = SimRng::new(1);
        let n = 5000;
        let samples: Vec<f64> = (0..n)
            .map(|_| m.sample_decode_us(r, Genre::Travel, &ff, 1.0, &mut rng))
            .collect();
        let avg = samples.iter().sum::<f64>() / n as f64;
        assert!((avg / mean - 1.0).abs() < 0.02, "avg {avg} vs mean {mean}");
        assert!(samples.iter().all(|&s| s >= mean * 0.3));
        assert!(samples.iter().any(|&s| s > mean * 1.1));
    }

    #[test]
    fn render_cost_stays_below_decode() {
        // The browser compositor path is heavy (per-frame main-thread +
        // composite work) but software decode still dominates.
        let m = DecodeCostModel::default();
        let ff = PlayerProfile::of(PlayerKind::Firefox);
        let r = rep(Resolution::R1080p, Fps::F60);
        let render = m.render_us(r, &ff);
        let decode = m.mean_decode_us(r, Genre::Travel, &ff, 1.0);
        assert!(render < 0.6 * decode, "render {render:.0} vs decode {decode:.0}");
        // And it must fit a 60 FPS frame period on the reference core.
        assert!(render < Fps::F60.frame_period_us() as f64 * 0.6);
    }

    #[test]
    fn genre_complexity_shifts_cost() {
        let m = DecodeCostModel::default();
        let ff = PlayerProfile::of(PlayerKind::Firefox);
        let r = rep(Resolution::R720p, Fps::F30);
        assert!(
            m.mean_decode_us(r, Genre::Sports, &ff, 1.0)
                > m.mean_decode_us(r, Genre::News, &ff, 1.0)
        );
    }
}
