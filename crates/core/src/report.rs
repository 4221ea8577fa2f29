//! Paper-shaped rendering of the analysis: one function per table/figure,
//! printing the same rows and series the paper reports.

use crate::fitscan::{alpha_by_degree_with_spread, drop_by_degree_with_spread};
use crate::pipeline::PaperAnalysis;
use crate::temporal::fig5_curve;

impl PaperAnalysis {
    /// Table I: the data-set inventory.
    pub fn render_table1(&self) -> String {
        let mut s = String::from("TABLE I: GREYNOISE AND CAIDA DATA SETS\n");
        s.push_str("GreyNoise Month   Sources\n");
        for row in &self.greynoise_inventory {
            s.push_str(&format!("{:<17} {:>9}\n", row.label, row.sources));
        }
        s.push('\n');
        s.push_str("CAIDA Start Time        Duration    Packets     Sources\n");
        for r in &self.caida_inventory {
            s.push_str(&format!(
                "{:<23} {:>6.0} sec {:>10} {:>10}\n",
                r.start_time, r.duration_secs, r.packets, r.sources
            ));
        }
        s
    }

    /// Table II: network quantities for each window's traffic matrix.
    pub fn render_table2(&self) -> String {
        let mut s = String::from("TABLE II: NETWORK QUANTITIES FROM TRAFFIC MATRICES\n");
        for (label, q) in &self.quantities {
            s.push_str(&format!("window {label}\n"));
            s.push_str(&q.render());
            s.push('\n');
        }
        s
    }

    /// Fig 1: traffic-matrix quadrant occupancy per instrument.
    pub fn render_fig1(&self) -> String {
        let q = &self.quadrants;
        let mut s = String::from("FIG 1: NETWORK TRAFFIC MATRIX QUADRANTS\n");
        s.push_str(&format!(
            "telescope  ext->int entries {:>12}   int->ext entries {:>12}\n",
            q.telescope_ext_to_int, q.telescope_int_to_ext
        ));
        s.push_str(&format!(
            "honeyfarm  ext->int sources {:>12}   int->ext engagements {:>8}\n",
            q.honeyfarm_ext_to_int, q.honeyfarm_int_to_ext
        ));
        s
    }

    /// Fig 2: the full streaming-quantity menu on the first window.
    pub fn render_fig2(&self) -> String {
        let mut s = String::from("FIG 2: STREAMING NETWORK TRAFFIC QUANTITIES (first window)\n");
        for (name, dist) in &self.quantity_distributions {
            match dist.fit {
                Some(fit) => s.push_str(&format!(
                    "{name}: d_max={}  ZM fit alpha={:.2} delta={:.2}\n",
                    dist.d_max, fit.alpha, fit.delta
                )),
                None => s.push_str(&format!("{name}: d_max={}\n", dist.d_max)),
            }
        }
        s
    }

    /// Fig 3: log2-binned source packet distributions with ZM fits.
    pub fn render_fig3(&self) -> String {
        let mut s = String::from(
            "FIG 3: CAIDA SOURCE PACKET DEGREE DISTRIBUTION (differential cumulative probability)\n",
        );
        for dist in &self.distributions {
            match dist.fit {
                Some(fit) => {
                    s.push_str(&format!(
                        "window {}  (Zipf-Mandelbrot fit: alpha={:.2} delta={:.2} residual={:.3})\n",
                        dist.window_label, fit.alpha, fit.delta, fit.residual
                    ));
                    if let Some(tail) = dist.tail_fit {
                        s.push_str(&format!(
                            "  CSN tail fit: alpha={:.2} above d_min={} (KS {:.3})\n",
                            tail.alpha, tail.d_min, tail.ks
                        ));
                    }
                }
                None => s.push_str(&format!("window {} (no fit)\n", dist.window_label)),
            }
            s.push_str("  d_i        D(d_i)\n");
            for (d, v) in dist.binned.iter() {
                if v > 0.0 {
                    s.push_str(&format!("  2^{:<7} {:.6}\n", d.max(1).ilog2(), v));
                }
            }
        }
        s
    }

    /// Fig 4: peak correlation vs source packets.
    pub fn render_fig4(&self) -> String {
        let mut s = String::from("FIG 4: PEAK CORRELATION (same-month CAIDA sources seen by honeyfarm)\n");
        s.push_str(&format!(
            "empirical law: min(1, log2(d)/log2(sqrt(N_V))) with log2(sqrt(N_V)) = {:.1}\n",
            self.bright_log2
        ));
        for peak in &self.peaks {
            s.push_str(&format!("window {} (month {})\n", peak.window_label, peak.month));
            s.push_str("  d        sources   measured   (95% CI)           law\n");
            for p in &peak.points {
                let detected = (p.fraction * p.n_sources as f64).round() as u64;
                let ci = obscor_stats::wilson95(detected, p.n_sources as u64);
                s.push_str(&format!(
                    "  2^{:<6} {:>8} {:>9.3}  [{:.3}, {:.3}] {:>9.3}\n",
                    p.bin, p.n_sources, p.fraction, ci.lo, ci.hi, p.empirical_law
                ));
            }
        }
        s
    }

    /// Fig 5: the single-bin temporal correlation with the three-model
    /// comparison.
    pub fn render_fig5(&self) -> String {
        let mut s = String::from("FIG 5: TEMPORAL CORRELATION (first window, knee bin)\n");
        let first = match self.caida_inventory.first() {
            Some(r) => r.start_time.clone(),
            None => return s + "(no windows)\n",
        };
        let curve = match fig5_curve(&self.curves, &first, self.bright_log2) {
            Some(c) => c,
            None => return s + "(knee bin not measured at this scale)\n",
        };
        s.push_str(&format!(
            "window {} bin d=2^{} ({} sources)\n",
            curve.window_label, curve.bin, curve.n_sources
        ));
        s.push_str("  month  lag(mo)  fraction\n");
        for ((m, lag), frac) in curve.months.iter().zip(&curve.lags).zip(&curve.fractions) {
            s.push_str(&format!("  {:>5} {:>8.2} {:>9.3}\n", m, lag, frac));
        }
        if let Some(fit) =
            self.fits.iter().find(|f| f.window_label == curve.window_label && f.bin == curve.bin)
        {
            let mc = &fit.modified_cauchy;
            s.push_str(&format!(
                "modified Cauchy: alpha={:.2} beta={:.2} residual={:.3}\n",
                mc.alpha, mc.beta, mc.residual
            ));
            if let Some(g) = fit.gaussian {
                s.push_str(&format!("Gaussian:        sigma={:.2} residual={:.3}\n", g.param, g.residual));
            }
            if let Some(c) = fit.cauchy {
                s.push_str(&format!("Cauchy:          gamma={:.2} residual={:.3}\n", c.param, c.residual));
            }
        }
        s
    }

    /// Fig 6: every temporal curve with its modified-Cauchy fit.
    pub fn render_fig6(&self) -> String {
        let mut s =
            String::from("FIG 6: TEMPORAL CORRELATION AND PACKET DEGREE (per window x bin)\n");
        s.push_str("window                bin      sources  peak    alpha  beta   residual\n");
        for f in &self.fits {
            let peak = f.modified_cauchy.peak;
            s.push_str(&format!(
                "{:<21} d=2^{:<4} {:>7} {:>6.3} {:>7.2} {:>6.2} {:>9.3}\n",
                f.window_label, f.bin, f.n_sources, peak, f.modified_cauchy.alpha,
                f.modified_cauchy.beta, f.modified_cauchy.residual
            ));
        }
        s
    }

    /// Fig 7: best-fit α vs degree.
    pub fn render_fig7(&self) -> String {
        let mut s = String::from("FIG 7: MODIFIED CAUCHY alpha VS SOURCE PACKETS\n");
        s.push_str("  d        mean alpha  spread\n");
        for (d, alpha, spread) in alpha_by_degree_with_spread(&self.fits) {
            s.push_str(&format!(
                "  2^{:<6} {:>9.2} {:>8.2}\n",
                d.max(1).ilog2(),
                alpha,
                spread
            ));
        }
        s
    }

    /// Fig 8: one-month drop `1/(β+1)` vs degree.
    pub fn render_fig8(&self) -> String {
        let mut s = String::from("FIG 8: ONE MONTH DROP 1/(beta+1) VS SOURCE PACKETS\n");
        s.push_str("  d        mean drop  spread\n");
        for (d, drop, spread) in drop_by_degree_with_spread(&self.fits) {
            s.push_str(&format!(
                "  2^{:<6} {:>9.3} {:>8.3}\n",
                d.max(1).ilog2(),
                drop,
                spread
            ));
        }
        s
    }

    /// The scaling extension: sources-vs-packets exponents.
    pub fn render_scaling(&self) -> String {
        let mut s = String::from(
            "SCALING: UNIQUE SOURCES vs PACKETS (paper: sources ~ N_V^(1/2))\n",
        );
        s.push_str("window                 exponent     R^2\n");
        for (label, e, r2) in &self.scaling {
            s.push_str(&format!("{label:<22} {e:>8.3} {r2:>7.3}\n"));
        }
        s
    }

    /// The subnet extension: top /16 prefixes per window.
    pub fn render_subnets(&self) -> String {
        let mut s = String::from("SUBNET STRUCTURE: TOP /16 PREFIXES PER WINDOW\n");
        for (label, rows) in &self.subnet_top {
            s.push_str(&format!("window {label}\n"));
            s.push_str("  /16 prefix     sources   packets\n");
            for r in rows {
                s.push_str(&format!(
                    "  {:>3}.{:<10} {:>7} {:>9}\n",
                    r.prefix >> 8,
                    r.prefix & 0xFF,
                    r.sources,
                    r.packets
                ));
            }
        }
        s
    }

    /// The enrichment extension: class structure of the coeval overlap.
    pub fn render_classes(&self) -> String {
        let mut s = String::new();
        for c in &self.class_structure {
            s.push_str(&crate::classes::render(c));
            s.push('\n');
        }
        s
    }

    /// Every table and figure, concatenated.
    pub fn render_all(&self) -> String {
        [
            self.render_table1(),
            self.render_table2(),
            self.render_fig1(),
            self.render_fig2(),
            self.render_fig3(),
            self.render_fig4(),
            self.render_fig5(),
            self.render_fig6(),
            self.render_fig7(),
            self.render_fig8(),
            self.render_classes(),
            self.render_subnets(),
            self.render_scaling(),
        ]
        .join("\n")
    }

    /// Figure data as TSV blocks (machine-readable export).
    pub fn to_tsv(&self) -> String {
        let mut s = String::new();
        s.push_str("#fig4\twindow\tbin\td\tn_sources\tfraction\tlaw\n");
        for p in &self.peaks {
            for pt in &p.points {
                s.push_str(&format!(
                    "fig4\t{}\t{}\t{}\t{}\t{:.6}\t{:.6}\n",
                    p.window_label, pt.bin, pt.d, pt.n_sources, pt.fraction, pt.empirical_law
                ));
            }
        }
        s.push_str("#fig6\twindow\tbin\tlag\tfraction\n");
        for c in &self.curves {
            for (lag, frac) in c.lags.iter().zip(&c.fractions) {
                s.push_str(&format!(
                    "fig6\t{}\t{}\t{:.3}\t{:.6}\n",
                    c.window_label, c.bin, lag, frac
                ));
            }
        }
        s.push_str("#fits\twindow\tbin\talpha\tbeta\tdrop\n");
        for f in &self.fits {
            s.push_str(&format!(
                "fit\t{}\t{}\t{:.3}\t{:.3}\t{:.3}\n",
                f.window_label, f.bin, f.modified_cauchy.alpha, f.modified_cauchy.beta,
                f.one_month_drop()
            ));
        }
        s.push_str("#fig3\twindow\td\tmass\n");
        for dist in &self.distributions {
            for (d, v) in dist.binned.iter() {
                if v > 0.0 {
                    s.push_str(&format!("fig3\t{}\t{}\t{:.6e}\n", dist.window_label, d, v));
                }
            }
        }
        s.push_str("#fig7\td\tmean_alpha\tspread\n");
        for (d, a, sp) in alpha_by_degree_with_spread(&self.fits) {
            s.push_str(&format!("fig7\t{d}\t{a:.3}\t{sp:.3}\n"));
        }
        s.push_str("#fig8\td\tmean_drop\tspread\n");
        for (d, v, sp) in drop_by_degree_with_spread(&self.fits) {
            s.push_str(&format!("fig8\t{d}\t{v:.3}\t{sp:.3}\n"));
        }
        s.push_str("#classes\twindow\tclass\tshared\tclass_size\tshare\n");
        for c in &self.class_structure {
            for r in &c.rows {
                s.push_str(&format!(
                    "class\t{}\t{}\t{}\t{}\t{:.4}\n",
                    c.window_label, r.label, r.shared, r.class_size, r.share_of_detected
                ));
            }
        }
        s.push_str("#scaling\twindow\texponent\tr2\n");
        for (label, e, r2) in &self.scaling {
            s.push_str(&format!("scaling\t{label}\t{e:.4}\t{r2:.4}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::pipeline::run;
    use obscor_netmodel::Scenario;
    use std::sync::OnceLock;

    fn analysis() -> &'static PaperAnalysis {
        static A: OnceLock<PaperAnalysis> = OnceLock::new();
        A.get_or_init(|| {
            let s = Scenario::paper_scaled(1 << 15, 11);
            run(&s, &AnalysisConfig::fast())
        })
    }

    #[test]
    fn table1_lists_all_rows() {
        let t = analysis().render_table1();
        assert!(t.contains("2020-02"));
        assert!(t.contains("2021-04"));
        assert!(t.contains("2020-06-17-12:00:00"));
        assert!(t.lines().count() >= 15 + 5 + 3);
    }

    #[test]
    fn table2_names_all_quantities() {
        let t = analysis().render_table2();
        for needle in [
            "Valid packets N_V",
            "Unique links",
            "Max link packets",
            "Unique sources",
            "Max source packets",
            "Max source fan-out",
            "Unique destinations",
            "Max destination packets",
            "Max destination fan-in",
        ] {
            assert!(t.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn figures_render_nonempty() {
        let a = analysis();
        for (name, out) in [
            ("fig1", a.render_fig1()),
            ("fig2", a.render_fig2()),
            ("fig3", a.render_fig3()),
            ("fig4", a.render_fig4()),
            ("fig5", a.render_fig5()),
            ("fig6", a.render_fig6()),
            ("fig7", a.render_fig7()),
            ("fig8", a.render_fig8()),
        ] {
            assert!(out.lines().count() >= 2, "{name} too short:\n{out}");
        }
    }

    #[test]
    fn render_all_contains_every_section() {
        let all = analysis().render_all();
        for header in ["TABLE I", "TABLE II", "FIG 1", "FIG 3", "FIG 4", "FIG 5", "FIG 6", "FIG 7", "FIG 8"] {
            assert!(all.contains(header), "missing section {header}");
        }
    }

    #[test]
    fn tsv_blocks_are_parseable() {
        let tsv = analysis().to_tsv();
        let fig4_rows = tsv.lines().filter(|l| l.starts_with("fig4\t")).count();
        let fig6_rows = tsv.lines().filter(|l| l.starts_with("fig6\t")).count();
        let fit_rows = tsv.lines().filter(|l| l.starts_with("fit\t")).count();
        assert!(fig4_rows > 0 && fig6_rows > 0 && fit_rows > 0);
        for line in tsv.lines().filter(|l| l.starts_with("fig4\t")) {
            assert_eq!(line.split('\t').count(), 7);
        }
        for prefix in ["fig3\t", "fig7\t", "fig8\t", "class\t", "scaling\t"] {
            assert!(
                tsv.lines().any(|l| l.starts_with(prefix)),
                "missing {prefix} block"
            );
        }
    }
}
