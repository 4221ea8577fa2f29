//! Window capture: drive the world model at a sampling instant and take
//! exactly `N_V` valid packets, handed out in leaf-sized batches.

use crate::darkspace::{Darkspace, DarkspaceFilter};
use crate::inventory::WindowTally;
use obscor_netmodel::scenario::CaidaWindowSpec;
use obscor_netmodel::{PacketStream, Scenario};
use obscor_pcap::{Packet, PacketFilter, Window};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seconds per model month (30-day months, matching the model clock).
const SECS_PER_MONTH: f64 = 30.0 * 24.0 * 3600.0;

/// One captured telescope window: Table I row plus the raw valid packets.
#[derive(Clone, Debug)]
pub struct TelescopeWindow {
    /// Table I timestamp label, e.g. `2020-06-17-12:00:00`.
    pub label: String,
    /// Model-time coordinate (months since grid start).
    pub coord: f64,
    /// The captured constant-packet window.
    pub window: Window,
    /// Unique sources among the window's packets, counted by the capture.
    sources: u64,
}

impl TelescopeWindow {
    /// Number of valid packets (always the scenario's `N_V`).
    pub fn packets(&self) -> usize {
        self.window.packets.len()
    }

    /// Wall-clock duration in seconds (Table I's variable-duration column).
    pub fn duration_secs(&self) -> f64 {
        self.window.duration_secs()
    }

    /// Number of unique sources in the window, as the capture counted them.
    pub fn unique_sources(&self) -> usize {
        self.sources as usize
    }
}

/// The darkspace a scenario's telescope monitors.
pub fn scenario_darkspace(scenario: &Scenario) -> Darkspace {
    Darkspace::slash8(scenario.population.config.darkspace_octet, scenario.traffic.n_allocated)
}

/// Capture one window at a scenario sampling instant.
///
/// Deterministic in `(scenario.seed, spec.coord)`: capturing the same
/// window twice yields identical packets.
pub fn capture_window(scenario: &Scenario, spec: &CaidaWindowSpec) -> TelescopeWindow {
    capture_window_at(scenario, spec, scenario.population.config.darkspace_octet)
}

/// Capture one window as seen by an observatory monitoring a *different*
/// /8 (`octet`) of the same world — the second-telescope experiment the
/// paper's discussion motivates ("comparing observations from different
/// locations on the Internet"). Spray traffic (scanning, backscatter)
/// reaches every observatory; each observatory samples the beam
/// independently, so cross-telescope overlap isolates the
/// brightness-determines-visibility effect from honeyfarm detection
/// physics.
pub fn capture_window_at(
    scenario: &Scenario,
    spec: &CaidaWindowSpec,
    octet: u8,
) -> TelescopeWindow {
    let mut capture = WindowCapture::new(scenario, spec, octet, scenario.n_v);
    capture.fill();
    let packets = std::mem::take(&mut capture.batch);
    let tally = capture.finish();
    let window = Window { index: 0, packets, discarded: tally.discarded() };
    let (label, coord) = (spec.label.clone(), spec.coord);
    TelescopeWindow { label, coord, window, sources: tally.sources() }
}

/// The seeded endless packet stream and darkspace validity filter behind
/// every capture — the single source of truth for how a sampling
/// instant's traffic is generated. Public so the streaming ingest service
/// (`telescope::stream`, `cli serve`) can drain the *same* deterministic
/// source the batch capture path reads, which is what makes the
/// streamed-vs-batch differential tests byte-exact.
pub fn window_traffic_source<'a>(
    scenario: &'a Scenario,
    spec: &CaidaWindowSpec,
    octet: u8,
) -> (PacketStream<'a, StdRng>, DarkspaceFilter) {
    let ds = Darkspace::slash8(octet, scenario.traffic.n_allocated);
    let start_micros = (spec.coord * SECS_PER_MONTH * 1e6) as u64;
    let rng =
        StdRng::seed_from_u64(scenario.seed ^ spec.coord.to_bits() ^ ((octet as u64) << 48));
    let stream = PacketStream::at_instant_toward(
        &scenario.population,
        spec.coord,
        scenario.traffic,
        octet,
        start_micros,
        rng,
    );
    (stream, ds.validity_filter())
}

/// The one capture loop: draws a window's traffic from
/// [`window_traffic_source`], drops what the darkspace filter rejects, and
/// hands the first `N_V` valid packets to the caller in batches of at most
/// `batch` packets (a fold's leaf, an archive slot, or the whole window),
/// counting them in a [`WindowTally`] as they go. The caller times and
/// places each batch; only one batch is ever held.
pub struct WindowCapture<'a> {
    stream: PacketStream<'a, StdRng>,
    filter: DarkspaceFilter,
    remaining: usize,
    batch_len: usize,
    batch: Vec<Packet>,
    tally: WindowTally,
}

impl<'a> WindowCapture<'a> {
    /// Start capturing `spec`'s window of the scenario's `N_V` valid
    /// packets at the darkspace `octet`, in batches of `batch` packets.
    pub fn new(scenario: &'a Scenario, spec: &CaidaWindowSpec, octet: u8, batch: usize) -> Self {
        let (stream, filter) = window_traffic_source(scenario, spec, octet);
        let batch_len = batch.clamp(1, scenario.n_v.max(1));
        Self {
            stream,
            filter,
            remaining: scenario.n_v,
            batch_len,
            batch: Vec::with_capacity(batch_len),
            tally: WindowTally::default(),
        }
    }

    /// The next batch of valid packets in arrival order; `None` once the
    /// window's `N_V` packets have all been handed out.
    pub fn next_batch(&mut self) -> Option<&[Packet]> {
        self.fill().then_some(self.batch.as_slice())
    }

    /// End the capture: the window's tally, with its packets added to the
    /// `telescope.capture.*` counters.
    pub fn finish(self) -> WindowTally {
        obscor_obs::counter("telescope.capture.windows_total").inc();
        obscor_obs::counter("telescope.capture.valid_packets_total").add(self.tally.packets());
        obscor_obs::counter("telescope.capture.discarded_packets_total")
            .add(self.tally.discarded());
        self.tally
    }

    /// Refill the batch buffer from the stream, timed by the
    /// `telescope.capture_window` span; false when nothing is left.
    fn fill(&mut self) -> bool {
        self.batch.clear();
        if self.remaining == 0 {
            return false;
        }
        let _span = obscor_obs::span("telescope.capture_window");
        let want = self.batch_len.min(self.remaining);
        while self.batch.len() < want {
            // The synthetic stream is endless; should one ever run dry the
            // window just ends short, and its tally says how short.
            let Some(p) = self.stream.next() else {
                self.remaining = 0;
                break;
            };
            if self.filter.accept(&p) {
                self.tally.push(&p);
                self.batch.push(p);
            } else {
                self.tally.discard();
            }
        }
        self.remaining = self.remaining.saturating_sub(self.batch.len());
        !self.batch.is_empty()
    }
}

/// Capture every scenario window, in window order.
pub fn capture_all_windows(scenario: &Scenario) -> Vec<TelescopeWindow> {
    scenario.caida_windows.iter().map(|spec| capture_window(scenario, spec)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obscor_netmodel::Scenario;

    fn scenario() -> Scenario {
        Scenario::paper_scaled(1 << 14, 77)
    }

    #[test]
    fn window_has_exactly_nv_valid_packets() {
        let s = scenario();
        let w = capture_window(&s, &s.caida_windows[0]);
        assert_eq!(w.packets(), s.n_v);
        let ds = scenario_darkspace(&s);
        assert!(w
            .window
            .packets
            .iter()
            .all(|p| ds.contains(p.dst) && !ds.is_allocated(p.dst)));
    }

    #[test]
    fn legitimate_traffic_is_discarded() {
        let s = scenario();
        let w = capture_window(&s, &s.caida_windows[0]);
        assert!(w.window.discarded > 0, "some legitimate packets must have arrived");
        // Roughly the configured legitimate fraction.
        let frac = w.window.discarded as f64 / (s.n_v as u64 + w.window.discarded) as f64;
        assert!(
            (frac - s.traffic.legit_fraction).abs() < 0.01,
            "discard fraction {frac}"
        );
    }

    #[test]
    fn capture_is_deterministic() {
        let s = scenario();
        let a = capture_window(&s, &s.caida_windows[2]);
        let b = capture_window(&s, &s.caida_windows[2]);
        assert_eq!(a.window, b.window);
    }

    #[test]
    fn different_windows_differ() {
        let s = scenario();
        let a = capture_window(&s, &s.caida_windows[0]);
        let b = capture_window(&s, &s.caida_windows[1]);
        assert_ne!(a.window.packets, b.window.packets);
    }

    #[test]
    fn duration_matches_arrival_rate() {
        let s = scenario();
        let w = capture_window(&s, &s.caida_windows[0]);
        // N_V packets at the diurnal-adjusted rate take about n_v/rate
        // seconds (legitimate traffic stretches it a percent or so).
        let expect = s.n_v as f64 / s.traffic.rate_at(s.caida_windows[0].coord);
        assert!(
            (w.duration_secs() - expect).abs() / expect < 0.1,
            "duration {} vs expected {expect}",
            w.duration_secs()
        );
    }

    #[test]
    fn capture_all_windows_matches_single_captures() {
        let s = scenario();
        let all = capture_all_windows(&s);
        assert_eq!(all.len(), 5);
        let serial = capture_window(&s, &s.caida_windows[3]);
        assert_eq!(all[3].window, serial.window);
        assert_eq!(all[3].label, "2020-10-28-00:00:00");
    }

    #[test]
    fn batched_capture_matches_the_held_window() {
        // Leaf-sized batches of the one capture loop concatenate to the
        // held window, and the tally taken on the way gives its Table I
        // row, its discarded count and its scaling points.
        for (n_v, seed) in
            [(1 << 12, 42), (5000, 42), (1 << 15, 42), (1 << 12, 7), (5000, 7), (1 << 15, 7)]
        {
            let s = Scenario::paper_scaled(n_v, seed);
            let held = capture_all_windows(&s);
            let rows = crate::inventory(&held);
            let octet = s.population.config.darkspace_octet;
            for ((spec, w), row) in s.caida_windows.iter().zip(&held).zip(&rows) {
                let batch = crate::leaf_capacity_for(n_v);
                let mut capture = WindowCapture::new(&s, spec, octet, batch);
                let mut packets = Vec::new();
                while let Some(b) = capture.next_batch() {
                    assert!(b.len() <= batch);
                    packets.extend_from_slice(b);
                }
                let tally = capture.finish();
                let at = format!("N_V {n_v}, seed {seed}, {}", spec.label);
                assert_eq!(packets, w.window.packets, "{at}");
                assert_eq!(&tally.row(&spec.label), row, "{at}");
                assert_eq!(tally.discarded(), w.window.discarded, "{at}");
                let whole = WindowTally::of(&w.window.packets);
                assert_eq!(tally.scaling_points(8), whole.scaling_points(8), "{at}");
            }
        }
    }

    #[test]
    fn noon_and_midnight_windows_have_different_durations() {
        // Table I: constant packets, variable time. The diurnal cycle makes
        // the 12:00 windows shorter than the 00:00 windows.
        let s = scenario();
        let noon = capture_window(&s, &s.caida_windows[0]); // ...-12:00:00
        let midnight = capture_window(&s, &s.caida_windows[1]); // ...-00:00:00
        assert!(
            noon.duration_secs() < midnight.duration_secs(),
            "noon {:.2}s should be shorter than midnight {:.2}s",
            noon.duration_secs(),
            midnight.duration_secs()
        );
    }

    #[test]
    fn sources_are_plausible() {
        let s = scenario();
        let w = capture_window(&s, &s.caida_windows[0]);
        let n = w.unique_sources();
        assert!(n > 10, "too few sources: {n}");
        assert!(n <= s.population.len());
    }
}
