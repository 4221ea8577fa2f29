//! Command-line arguments of `obscor-bench`.

/// Parse a window size written as `2^NN` or as a decimal count.
///
/// Rejects zero, garbage, and exponents of `usize::BITS` or more (which a
/// plain `1usize << NN` would panic on in debug builds and silently mask
/// in release builds).
pub fn parse_nv(s: &str) -> Result<usize, String> {
    let n = match s.strip_prefix("2^") {
        Some(exp) => {
            let e: u32 = exp
                .parse()
                .map_err(|_| format!("bad exponent in N_V {s:?}"))?;
            if e >= usize::BITS {
                return Err(format!(
                    "N_V exponent {e} does not fit in {} bits",
                    usize::BITS
                ));
            }
            1usize << e
        }
        None => s
            .parse()
            .map_err(|_| format!("bad N_V {s:?} (want 2^NN or a count)"))?,
    };
    if n == 0 {
        return Err("N_V must be positive".into());
    }
    Ok(n)
}

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload to run in this process; `None` runs every workload, each
    /// in its own child process.
    pub workload: Option<String>,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Seconds each workload measures for.
    pub seconds: f64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Shrink every workload to a seconds-long smoke size (tests).
    pub smoke: bool,
    /// Override the window size `N_V` of the reproduce workloads.
    pub nv: Option<usize>,
    /// Also write the result JSON to this file.
    pub out: Option<String>,
}

/// Usage text.
pub const USAGE: &str = "usage: obscor-bench [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--nv 2^NN|COUNT] [--out FILE]";

/// Parse `args` (without the program name).
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        nv: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (want 0 or 1)")),
                }
            }
            "--nv" => a.nv = Some(parse_nv(value)?),
            "--out" => a.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_nv_accepts_powers_and_counts() {
        assert_eq!(parse_nv("2^20"), Ok(1 << 20));
        assert_eq!(parse_nv("2^0"), Ok(1));
        assert_eq!(parse_nv("65536"), Ok(65536));
        assert_eq!(
            parse_nv(&format!("2^{}", usize::BITS - 1)),
            Ok(1 << (usize::BITS - 1))
        );
    }

    #[test]
    fn parse_nv_rejects_overflow_zero_and_garbage() {
        assert!(parse_nv(&format!("2^{}", usize::BITS)).is_err());
        assert!(parse_nv("2^70").is_err());
        assert!(parse_nv("2^4294967296").is_err());
        assert!(parse_nv("0").is_err());
        assert!(parse_nv("99999999999999999999999").is_err());
        for bad in ["", "2^", "2^x", "2^-1", "-5", "1e6", "abc", " 16"] {
            assert!(parse_nv(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn parses_the_benchmark_json_command_line() {
        let argv: Vec<String> = "--workload stream-plain --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("stream-plain"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 10.0, true, false)
        );
    }

    #[test]
    fn rejects_bad_flags() {
        for argv in [
            &["--trace", "2"][..],
            &["--seconds", "0"],
            &["--seed"],
            &["--bogus", "1"],
        ] {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&argv).is_err(), "{argv:?} accepted");
        }
    }
}
