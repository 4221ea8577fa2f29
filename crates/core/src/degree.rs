//! Per-window source degrees, via the paper's full data path.
//!
//! The telescope's archive stores CryptoPAN-anonymized matrices; all
//! Table II reductions are permutation-invariant, so the source packet
//! counts are computed on anonymized indices (see
//! `obscor_telescope::matrix` and the workspace property tests for the
//! invariance proofs). To correlate with the honeyfarm the *reduced*
//! source list is then deanonymized through the paper's trusted-sharing
//! workflow 1 — "if the subset is small and the risk is low, then
//! anonymized data can be sent back to the sources for deanonymization.
//! For this work, the first approach was used."

use obscor_anonymize::sharing::Holder;
use obscor_assoc::BitSet;
use obscor_hypersparse::reduce;
use obscor_netmodel::Scenario;
use obscor_stats::binning::log2_bin;
use obscor_stats::DegreeHistogram;
use obscor_telescope::{capture_window, matrix, TelescopeWindow};
use std::collections::BTreeMap;

/// The reduced, deanonymized degree data of one telescope window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowDegrees {
    /// Table I window label.
    pub label: String,
    /// Model-time coordinate of the window (months).
    pub coord: f64,
    /// Month index containing the window.
    pub month: usize,
    /// `(real source ip, window packet count d)`, sorted by ip.
    pub degrees: Vec<(u32, u64)>,
}

impl WindowDegrees {
    /// Reduce a captured window: build the hierarchical traffic matrix,
    /// take row sums (source packets), and run the anonymized product
    /// through the send-back deanonymization workflow against `holder`
    /// (the telescope operator's CryptoPAN key).
    pub fn from_window(w: &TelescopeWindow, holder: &Holder, month: usize) -> Self {
        let m = matrix::build_matrix(w);
        Self::from_matrix(&w.label, w.coord, month, &m, holder)
    }

    /// Reduce an already-built traffic matrix (avoids rebuilding when the
    /// caller also needs the matrix for Table II).
    pub fn from_matrix(
        label: &str,
        coord: f64,
        month: usize,
        m: &obscor_hypersparse::Csr<u64>,
        holder: &Holder,
    ) -> Self {
        let _span = obscor_obs::span("core.degrees");
        let reduced = reduce::source_packets_auto(m);
        obscor_obs::counter("core.degrees.sources_total").add(reduced.len() as u64);
        // The archive publishes the reduced product anonymized...
        let real_ips: Vec<u32> = reduced.iter().map(|&(ip, _)| ip).collect();
        let anon_ips = holder.publish(&real_ips);
        // ...and the researcher sends it back for deanonymization
        // (workflow 1; the subset is the per-window source list).
        let returned = holder
            .deanonymize_subset(&anon_ips, anon_ips.len())
            // audit:allow(panic-path) — the cap equals the subset size by construction (workflow 1 contract)
            .expect("send-back within agreed cap");
        let mut degrees: Vec<(u32, u64)> = returned
            .into_iter()
            .zip(reduced.into_iter().map(|(_, d)| d))
            .collect();
        degrees.sort_unstable();
        Self { label: label.to_string(), coord, month, degrees }
    }

    /// Capture + build + reduce one scenario window end to end.
    pub fn capture(scenario: &Scenario, window_index: usize, holder: &Holder) -> Self {
        let spec = &scenario.caida_windows[window_index];
        let w = capture_window(scenario, spec);
        // audit:allow(panic-path) — caida_windows come from the scenario's own grid, so lookup cannot fail
        let month = scenario.window_month(spec).expect("window on grid");
        Self::from_window(&w, holder, month)
    }

    /// Number of unique sources.
    pub fn n_sources(&self) -> usize {
        self.degrees.len()
    }

    /// Total packets (equals `N_V`).
    pub fn total_packets(&self) -> u64 {
        self.degrees.iter().map(|&(_, d)| d).sum()
    }

    /// The degree histogram `n_t(d)`.
    pub fn histogram(&self) -> DegreeHistogram {
        DegreeHistogram::from_degrees(self.degrees.iter().map(|&(_, d)| d))
    }

    /// Sources grouped into log2 degree bins: bin index → compressed bit
    /// set of the bin's source addresses. Only bins holding at least
    /// `min_sources` sources are returned. `degrees` is sorted by ip, so
    /// each bin's keys arrive already sorted and unique.
    pub fn bin_bit_sets(&self, min_sources: usize) -> BTreeMap<u32, BitSet> {
        let mut groups: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &(ip, d) in &self.degrees {
            groups.entry(log2_bin(d)).or_default().push(ip);
        }
        groups
            .into_iter()
            .filter(|(_, v)| v.len() >= min_sources)
            .map(|(bin, ips)| (bin, BitSet::from_sorted_unique(&ips)))
            .collect()
    }

    /// The full source set of the window as a compressed bit set.
    pub fn bit_set(&self) -> BitSet {
        let ips: Vec<u32> = self.degrees.iter().map(|&(ip, _)| ip).collect();
        BitSet::from_sorted_unique(&ips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obscor_netmodel::Scenario;
    use std::sync::OnceLock;

    fn fixture() -> &'static (Scenario, WindowDegrees) {
        static F: OnceLock<(Scenario, WindowDegrees)> = OnceLock::new();
        F.get_or_init(|| {
            let s = Scenario::paper_scaled(1 << 14, 31);
            let holder = Holder::new("telescope", &[7u8; 32]);
            let wd = WindowDegrees::capture(&s, 0, &holder);
            (s, wd)
        })
    }

    #[test]
    fn degrees_conserve_packets() {
        let (s, wd) = fixture();
        assert_eq!(wd.total_packets(), s.n_v as u64);
    }

    #[test]
    fn sources_are_real_world_ips() {
        let (s, wd) = fixture();
        // Every deanonymized source must be an actual population member
        // (legit packets were filtered before the matrix).
        let world: std::collections::HashSet<u32> =
            s.population.sources.iter().map(|x| x.ip.0).collect();
        for &(ip, _) in &wd.degrees {
            assert!(world.contains(&ip), "unknown source {ip:#x}");
        }
    }

    #[test]
    fn window_metadata() {
        let (_, wd) = fixture();
        assert_eq!(wd.label, "2020-06-17-12:00:00");
        assert_eq!(wd.month, 4);
        assert!(wd.n_sources() > 10);
    }

    #[test]
    fn histogram_matches_degrees() {
        let (_, wd) = fixture();
        let h = wd.histogram();
        assert_eq!(h.total() as usize, wd.n_sources());
        let max = wd.degrees.iter().map(|&(_, d)| d).max().unwrap();
        assert_eq!(h.d_max(), max);
    }

    #[test]
    fn bins_partition_the_sources() {
        let (_, wd) = fixture();
        let bins = wd.bin_bit_sets(1);
        let total: usize = bins.values().map(BitSet::len).sum();
        assert_eq!(total, wd.n_sources());
        // Each source sits in its own degree's bin, so with the total
        // equal no bin holds anything else.
        for &(ip, d) in &wd.degrees {
            assert!(bins[&log2_bin(d)].contains(ip), "source {ip:#x} missing from its bin");
        }
        for keys in bins.values() {
            keys.check_invariants().unwrap();
        }
    }

    #[test]
    fn min_sources_filters_sparse_bins() {
        let (_, wd) = fixture();
        let all = wd.bin_bit_sets(1);
        let filtered = wd.bin_bit_sets(50);
        assert!(filtered.len() <= all.len());
        assert!(filtered.values().all(|k| k.len() >= 50));
        assert!(all.iter().all(|(bin, k)| filtered.contains_key(bin) == (k.len() >= 50)));
    }

    #[test]
    fn bit_set_has_one_key_per_source() {
        let (_, wd) = fixture();
        let all = wd.bit_set();
        all.check_invariants().unwrap();
        let ips: Vec<u32> = wd.degrees.iter().map(|&(ip, _)| ip).collect();
        assert_eq!(all.iter().collect::<Vec<_>>(), ips);
    }
}
