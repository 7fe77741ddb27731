//! Order statistics, the rate-ladder search, and the output-name rules.

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending slice.
///
/// # Panics
/// Panics on an empty slice: every caller has at least one sample or has
/// already counted the phase as failed.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `values` (nearest rank, so always one of the samples).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Seconds of schedule per window of [`windowed_quantile`].
pub const WINDOW_S: f64 = 0.1;

/// The median, over consecutive windows of `window` samples in send
/// order, of each window's `q`-quantile. A stall of the host that hits a
/// few windows moves this far less than it moves the quantile of the
/// whole phase, while a slowdown that lasts through most windows moves
/// it fully. A phase shorter than two windows is one window.
pub fn windowed_quantile(in_order: &[f64], window: usize, q: f64) -> f64 {
    let per_window: Vec<f64> = if in_order.len() < 2 * window {
        vec![quantile(&sorted(in_order), q)]
    } else {
        in_order
            .chunks_exact(window)
            .map(|w| quantile(&sorted(w), q))
            .collect()
    };
    median(&per_window)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail rule: the highest percentile that still has at least
/// `beyond` samples above it, as `(percentile, value)`. `None` when
/// there are not more than `beyond` samples.
pub fn tail(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= beyond {
        return None;
    }
    let s = sorted(values);
    let rank = n - beyond;
    Some((100.0 * rank as f64 / n as f64, s[rank - 1]))
}

/// Whether the latencies of one open-loop rung, in send order, show a
/// backlog that grows over the rung: the median of the last quarter
/// exceeds the median of the first quarter by more than `slack_us`.
/// A queue that merely holds steady keeps both quarters alike.
pub fn backlog_growing(latencies_in_send_order: &[f64], slack_us: f64) -> bool {
    let quarter = latencies_in_send_order.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = median(&latencies_in_send_order[..quarter]);
    let last = median(&latencies_in_send_order[latencies_in_send_order.len() - quarter..]);
    last > first + slack_us
}

/// Rungs per doubling of the request rate on the ladder.
pub const RUNGS_PER_OCTAVE: u32 = 16;

/// The request rate of ladder rung `step`: `base * 2^(step / 16)`.
pub fn ladder_rate(base: f64, step: u32) -> f64 {
    base * 2f64.powf(step as f64 / RUNGS_PER_OCTAVE as f64)
}

/// Finds the highest rung in `0..=top` for which `passes` holds, assuming
/// a rung passes only if every lower rung does. Probes one rung per
/// octave upwards, then bisects the octave where the first failure lies,
/// so only `O(octaves + log RUNGS_PER_OCTAVE)` rungs are run. `None` when
/// rung 0 already fails.
pub fn search_ladder(top: u32, mut passes: impl FnMut(u32) -> bool) -> Option<u32> {
    let mut good = None;
    let mut step = 0;
    let mut bad = loop {
        if !passes(step) {
            break step;
        }
        good = Some(step);
        if step == top {
            return good;
        }
        step = (step + RUNGS_PER_OCTAVE).min(top);
    };
    let mut lo = good?;
    while bad - lo > 1 {
        let mid = lo + (bad - lo) / 2;
        if passes(mid) {
            lo = mid;
        } else {
            bad = mid;
        }
    }
    Some(lo)
}

/// Whether `name` may name a metric or workload: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_quantile_discounts_short_stalls() {
        // 10 windows of 100; two of them hit by a 10 ms stall.
        let mut v = vec![50.0; 1000];
        for x in &mut v[120..140] {
            *x = 10_000.0;
        }
        for x in &mut v[700..705] {
            *x = 10_000.0;
        }
        assert_eq!(quantile(&sorted(&v), 0.99), 10_000.0);
        assert_eq!(windowed_quantile(&v, 100, 0.99), 50.0);
        // A slowdown through most windows is reported in full.
        let slow: Vec<f64> = (0..1000)
            .map(|i| if i % 100 < 5 { 900.0 } else { 50.0 })
            .collect();
        assert_eq!(windowed_quantile(&slow, 100, 0.99), 900.0);
        // Too short for two windows: the plain quantile.
        assert_eq!(windowed_quantile(&v[..150], 100, 0.99), 10_000.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&v, TAIL_BEYOND), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v, TAIL_BEYOND), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, value) = tail(&v, TAIL_BEYOND).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        assert_eq!(tail(&[1.0; 10], TAIL_BEYOND), None);
    }

    #[test]
    fn backlog_detection_separates_growth_from_steady_queues() {
        let steady: Vec<f64> = (0..400).map(|i| 40.0 + (i % 7) as f64).collect();
        assert!(!backlog_growing(&steady, 100.0));
        // A constant but long queue is not growing.
        let held: Vec<f64> = vec![900.0; 400];
        assert!(!backlog_growing(&held, 100.0));
        // Arrivals outpacing service: each request waits longer.
        let growing: Vec<f64> = (0..400).map(|i| 40.0 + 5.0 * i as f64).collect();
        assert!(backlog_growing(&growing, 100.0));
        assert!(!backlog_growing(&[1e9; 3], 100.0));
    }

    #[test]
    fn ladder_search_finds_the_highest_passing_rung() {
        for limit in [0u32, 1, 7, 15, 16, 17, 23, 40] {
            let mut probes = 0;
            let found = search_ladder(40, |s| {
                probes += 1;
                s <= limit
            });
            assert_eq!(found, Some(limit), "limit {limit}");
            assert!(probes <= 40 / RUNGS_PER_OCTAVE + 5, "{probes} probes");
        }
        assert_eq!(search_ladder(40, |_| false), None);
        assert_eq!(search_ladder(40, |_| true), Some(40));
        assert_eq!(ladder_rate(1000.0, RUNGS_PER_OCTAVE), 2000.0);
    }

    #[test]
    fn names_follow_the_output_charset() {
        for ok in [
            "setup_s",
            "index.query_us_p50",
            "gen.lag_us_p99",
            "ba",
            "9-x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "p99%", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
