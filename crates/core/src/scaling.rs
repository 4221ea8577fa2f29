//! Scaling relations within a window.
//!
//! The paper (and its refs 13/36) observes that "the number of unique
//! sources seen at the CAIDA Telescope and other locations is
//! approximately proportional to `N_V^{1/2}`" — and speculates this is
//! why the Fig 4 knee sits at `sqrt(N_V)`. This module measures the
//! sources-vs-packets scaling exponent directly: count unique sources at
//! nested prefixes of a window (2^10, 2^11, ..., N_V packets) and regress
//! `log(unique sources)` on `log(packets)`. The counts come from the
//! window's [`WindowTally`], which the capture takes as the packets go by.

use obscor_pcap::Packet;
use obscor_stats::regress::power_law_exponent;
use obscor_telescope::WindowTally;

/// The measured sources-vs-packets scaling of one window.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalingLaw {
    /// `(packets, unique sources)` at each nested prefix size.
    pub points: Vec<(u64, u64)>,
    /// Log-log slope (the paper's ~1/2).
    pub exponent: f64,
    /// Goodness of the log-log line.
    pub r_squared: f64,
}

impl ScalingLaw {
    /// Fit the scaling exponent to `(packets, unique sources)` points, as
    /// [`WindowTally::scaling_points`] gives them. `None` if the
    /// regression is degenerate.
    pub fn fit(points: Vec<(u64, u64)>) -> Option<Self> {
        let xs: Vec<f64> = points.iter().map(|&(c, _)| c as f64).collect();
        let ys: Vec<f64> = points.iter().map(|&(_, s)| s as f64).collect();
        let (exponent, r_squared) = power_law_exponent(&xs, &ys)?;
        Some(Self { points, exponent, r_squared })
    }
}

/// Measure unique sources at nested prefix sizes `2^min_log2 ..= len`,
/// then fit the scaling exponent.
///
/// Returns `None` if the window is shorter than `2^min_log2` packets or
/// the regression is degenerate.
pub fn source_scaling(packets: &[Packet], min_log2: u32) -> Option<ScalingLaw> {
    ScalingLaw::fit(WindowTally::of(packets).scaling_points(min_log2)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obscor_netmodel::Scenario;
    use obscor_telescope::capture_window;
    use std::sync::OnceLock;

    fn law() -> &'static ScalingLaw {
        static L: OnceLock<ScalingLaw> = OnceLock::new();
        L.get_or_init(|| {
            let s = Scenario::paper_scaled(1 << 16, 29);
            let w = capture_window(&s, &s.caida_windows[0]);
            source_scaling(&w.window.packets, 8).unwrap()
        })
    }

    #[test]
    fn sources_grow_sublinearly_with_packets() {
        let l = law();
        assert!(
            (0.2..0.95).contains(&l.exponent),
            "scaling exponent {} not sublinear",
            l.exponent
        );
        assert!(l.r_squared > 0.9, "scaling law is not a line: R2 {}", l.r_squared);
    }

    #[test]
    fn points_are_monotone() {
        let l = law();
        for pair in l.points.windows(2) {
            assert!(pair[1].0 > pair[0].0);
            assert!(pair[1].1 >= pair[0].1);
        }
        // Unique sources never exceed packets.
        assert!(l.points.iter().all(|&(c, s)| s <= c));
    }

    #[test]
    fn streamed_points_fit_the_held_windows_law() {
        // The points a leaf-by-leaf capture counts give the law the held
        // window's packets give.
        use obscor_telescope::{capture_all_windows, leaf_capacity_for, WindowCapture};
        for (n_v, seed) in
            [(1 << 12, 42), (5000, 42), (1 << 15, 42), (1 << 12, 7), (5000, 7), (1 << 15, 7)]
        {
            let s = Scenario::paper_scaled(n_v, seed);
            let octet = s.population.config.darkspace_octet;
            for (spec, w) in s.caida_windows.iter().zip(capture_all_windows(&s)) {
                let mut capture = WindowCapture::new(&s, spec, octet, leaf_capacity_for(n_v));
                while capture.next_batch().is_some() {}
                let streamed = capture.finish().scaling_points(8).and_then(ScalingLaw::fit);
                let held = source_scaling(&w.window.packets, 8);
                assert!(held.is_some(), "N_V {n_v}, seed {seed}");
                assert_eq!(streamed, held, "N_V {n_v}, seed {seed}, {}", spec.label);
            }
        }
    }

    #[test]
    fn short_windows_are_rejected() {
        let s = Scenario::paper_scaled(1 << 14, 30);
        let w = capture_window(&s, &s.caida_windows[0]);
        assert!(source_scaling(&w.window.packets[..512], 8).is_some());
        assert!(source_scaling(&w.window.packets[..512], 10).is_none());
        assert!(source_scaling(&[], 4).is_none());
    }

    #[test]
    fn single_source_stream_has_flat_scaling() {
        let s = Scenario::paper_scaled(1 << 14, 31);
        let w = capture_window(&s, &s.caida_windows[0]);
        // Rewrite every packet to one source: unique sources stay 1.
        let mono: Vec<Packet> = w
            .window
            .packets
            .iter()
            .map(|p| Packet { src: obscor_pcap::Ip4(42), ..*p })
            .collect();
        let l = source_scaling(&mono, 8).unwrap();
        assert!(l.exponent.abs() < 1e-9, "exponent {}", l.exponent);
        assert!(l.points.iter().all(|&(_, s)| s == 1));
    }
}
