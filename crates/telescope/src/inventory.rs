//! Table I (CAIDA side): window inventory rows, counted in one pass.

use crate::capture::TelescopeWindow;
use obscor_pcap::Packet;
use std::collections::HashSet;

/// One CAIDA row of Table I.
#[derive(Clone, Debug, PartialEq)]
pub struct InventoryRow {
    /// Collection start time label.
    pub start_time: String,
    /// Window duration in seconds (varies at constant packets).
    pub duration_secs: f64,
    /// Packets in the window (`N_V`).
    pub packets: u64,
    /// Unique sources observed.
    pub sources: u64,
}

/// The one count of a window taken as its packets go by: valid packets,
/// the packets the darkspace filter discarded, the first and last
/// timestamps, one seen-set of sources, and the unique-source count after
/// every power-of-two prefix (the sources-vs-packets scaling points).
/// Table I's row, the capture counters and the scaling law all read it, so
/// no pass over a window's packets is needed after capture.
#[derive(Debug, Default)]
pub struct WindowTally {
    seen: HashSet<u32>,
    packets: u64,
    discarded: u64,
    first_micros: u64,
    last_micros: u64,
    /// `(packets, unique sources)` after each power-of-two prefix.
    marks: Vec<(u64, u64)>,
}

impl WindowTally {
    /// The tally of `packets`, valid and in arrival order.
    pub fn of(packets: &[Packet]) -> Self {
        let mut tally = Self::default();
        packets.iter().for_each(|p| tally.push(p));
        tally
    }

    /// Count one valid packet.
    #[inline]
    pub(crate) fn push(&mut self, p: &Packet) {
        self.seen.insert(p.src.0);
        if self.packets == 0 {
            self.first_micros = p.ts_micros;
        }
        self.last_micros = p.ts_micros;
        self.packets += 1;
        if self.packets.is_power_of_two() {
            self.marks.push((self.packets, self.seen.len() as u64));
        }
    }

    /// Count one packet the validity filter rejected.
    #[inline]
    pub(crate) fn discard(&mut self) {
        self.discarded += 1;
    }

    /// Valid packets counted.
    pub(crate) fn packets(&self) -> u64 {
        self.packets
    }

    /// Rejected packets counted.
    pub(crate) fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Unique sources among the valid packets.
    pub(crate) fn sources(&self) -> u64 {
        self.seen.len() as u64
    }

    /// Table I's row for the window labelled `label`; its duration spans
    /// the first to the last valid packet.
    pub fn row(&self, label: &str) -> InventoryRow {
        InventoryRow {
            start_time: label.to_owned(),
            duration_secs: self.last_micros.saturating_sub(self.first_micros) as f64 / 1e6,
            packets: self.packets,
            sources: self.sources(),
        }
    }

    /// `(packets, unique sources)` at every power-of-two prefix from
    /// `2^min_log2` packets on, plus the whole window when it is not itself
    /// such a prefix; `None` when the window is shorter than `2^min_log2`.
    pub fn scaling_points(&self, min_log2: u32) -> Option<Vec<(u64, u64)>> {
        let first = 1u64.checked_shl(min_log2).filter(|&m| m <= self.packets)?;
        let mut points: Vec<(u64, u64)> =
            self.marks.iter().copied().filter(|&(c, _)| c >= first).collect();
        if points.last().map(|&(c, _)| c) != Some(self.packets) {
            points.push((self.packets, self.sources()));
        }
        Some(points)
    }
}

/// Build the inventory from captured windows, reading the source count
/// each capture took.
pub fn inventory(windows: &[TelescopeWindow]) -> Vec<InventoryRow> {
    windows
        .iter()
        .map(|w| InventoryRow {
            start_time: w.label.clone(),
            duration_secs: w.duration_secs(),
            packets: w.packets() as u64,
            sources: w.unique_sources() as u64,
        })
        .collect()
}

/// Render rows in the shape of Table I's CAIDA columns.
pub fn render(rows: &[InventoryRow]) -> String {
    let mut s = String::from(
        "CAIDA Start Time      Duration   Packets      Sources\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<21} {:>6.0} sec {:>12} {:>10}\n",
            r.start_time, r.duration_secs, r.packets, r.sources
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture_all_windows;
    use obscor_netmodel::Scenario;

    #[test]
    fn inventory_matches_windows() {
        let s = Scenario::paper_scaled(1 << 14, 3);
        let windows = capture_all_windows(&s);
        let inv = inventory(&windows);
        assert_eq!(inv.len(), 5);
        for (row, w) in inv.iter().zip(&windows) {
            assert_eq!(row.packets, s.n_v as u64);
            assert_eq!(row.start_time, w.label);
            assert!(row.sources > 0);
            assert!(row.duration_secs > 0.0);
            // The seen-set counts what a sort of the sources counts.
            let mut srcs: Vec<u32> = w.window.packets.iter().map(|p| p.src.0).collect();
            srcs.sort_unstable();
            srcs.dedup();
            assert_eq!(row.sources, srcs.len() as u64);
            assert_eq!(row.duration_secs, w.duration_secs());
        }
    }

    #[test]
    fn scaling_points_count_every_power_of_two_prefix() {
        let s = Scenario::paper_scaled(5000, 3);
        let w = crate::capture_window(&s, &s.caida_windows[0]);
        let packets = &w.window.packets;
        let tally = WindowTally::of(packets);
        let recount = |c: u64| {
            let mut srcs: Vec<u32> = packets[..c as usize].iter().map(|p| p.src.0).collect();
            srcs.sort_unstable();
            srcs.dedup();
            srcs.len() as u64
        };
        let points = tally.scaling_points(8).unwrap();
        let marks: Vec<u64> = points.iter().map(|&(c, _)| c).collect();
        assert_eq!(marks, [256, 512, 1024, 2048, 4096, 5000]);
        assert!(points.iter().all(|&(c, sources)| sources == recount(c)));
        // A window that is itself a power of two ends on its last mark.
        let exact = WindowTally::of(&packets[..4096]).scaling_points(10).unwrap();
        assert_eq!(exact.iter().map(|&(c, _)| c).collect::<Vec<_>>(), [1024, 2048, 4096]);
        assert_eq!(tally.scaling_points(13), None);
        assert_eq!(WindowTally::of(&[]).scaling_points(0), None);
        assert_eq!(tally.scaling_points(64), None);
    }

    #[test]
    fn render_has_header_and_rows() {
        let rows = vec![InventoryRow {
            start_time: "2020-06-17-12:00:00".into(),
            duration_secs: 1594.0,
            packets: 1 << 30,
            sources: 670_304,
        }];
        let out = render(&rows);
        assert!(out.contains("CAIDA Start Time"));
        assert!(out.contains("2020-06-17-12:00:00"));
        assert!(out.contains("670304"));
        assert_eq!(out.lines().count(), 2);
    }
}
