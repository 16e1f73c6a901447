//! Summary statistics and the span trace.

/// One reported order statistic: the percentile actually used, its value and
/// the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The value at `want` (0.5 for the median, 0.9 for p90), lowered to the
/// highest percentile that still has at least ten samples beyond it, and
/// never below the median. Nearest-rank: the k-th smallest of n samples is
/// the `k/n` percentile and has `n - k` samples beyond it.
pub fn quantile(samples: &[f64], want: f64) -> Quantile {
    if samples.is_empty() {
        return Quantile {
            percentile: want,
            value: 0.0,
            samples: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n);
    let k = rank(want).min(n.saturating_sub(10)).max(rank(0.5));
    Quantile {
        percentile: k as f64 / n as f64,
        value: sorted[k - 1],
        samples: n,
    }
}

/// The median, or 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).value
}

/// One timed call, recorded by the benchmark around its own call into the
/// engine. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The round the span belongs to (`None` outside every round).
    pub round: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover. Children of one parent are sequential calls on one
/// thread, so they never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            out[parent] = out[parent].saturating_sub(span.duration_ns());
        }
    }
    out
}

/// Per-name totals of a trace, in first-seen order.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    /// Whether the spans lie inside rounds (the round's own span included)
    /// rather than between them.
    pub in_round: bool,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layer_rows(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut rows: Vec<LayerRow> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let row = match rows.iter_mut().position(|r| r.name == span.name) {
            Some(i) => &mut rows[i],
            None => {
                rows.push(LayerRow {
                    name: span.name,
                    in_round: span.round.is_some(),
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.count += 1;
        row.total_ns += span.duration_ns();
        row.self_ns += self_ns;
    }
    rows
}

/// The round spans' self time over their duration: the part of each round
/// no call into the engine accounts for.
pub fn unattributed_share(spans: &[Span], round_name: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for (span, self_ns) in spans.iter().zip(selfs) {
        if span.name == round_name {
            own += self_ns;
            total += span.duration_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// Each row's self time as a share of all rounds' wall time, for the rows
/// inside rounds: along a round's blocking steps these add up to 1.
pub fn round_shares(rows: &[LayerRow], round_name: &str) -> Vec<Option<f64>> {
    let round_ns = rows
        .iter()
        .find(|r| r.name == round_name)
        .map_or(0, |r| r.total_ns);
    rows.iter()
        .map(|r| (r.in_round && round_ns > 0).then(|| r.self_ns as f64 / round_ns as f64))
        .collect()
}

/// Writes the trace as JSON: the per-layer summary, then every span.
pub fn write_trace_json(
    out: &mut impl std::io::Write,
    spans: &[Span],
    round_name: &str,
) -> std::io::Result<()> {
    let rows = layer_rows(spans);
    let shares = round_shares(&rows, round_name);
    writeln!(out, "{{\n  \"layers\": [")?;
    for (i, (row, share)) in rows.iter().zip(shares).enumerate() {
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \
             \"self_share_of_rounds\": {}}}{}",
            row.name,
            row.count,
            row.total_ns,
            row.self_ns,
            share.map_or("null".to_string(), |s| s.to_string()),
            if i + 1 < rows.len() { "," } else { "" }
        )?;
    }
    writeln!(out, "  ],\n  \"spans\": [")?;
    for (i, span) in spans.iter().enumerate() {
        writeln!(
            out,
            "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {}, \"round\": {}}}{}",
            span.name,
            span.start_ns,
            span.end_ns,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            span.round.map_or("null".to_string(), |r| r.to_string()),
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(out, "  ]\n}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_keeps_ten_samples_beyond_the_reported_percentile() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = quantile(&samples, 0.9);
        assert_eq!((p90.percentile, p90.value, p90.samples), (0.9, 90.0, 100));
        assert_eq!(samples.iter().filter(|&&v| v > p90.value).count(), 10);

        // 50 samples cannot hold p90: the highest percentile with ten beyond
        // it is p80.
        let p = quantile(&samples[..50], 0.9);
        assert_eq!((p.percentile, p.value), (0.8, 40.0));
        assert_eq!(samples[..50].iter().filter(|&&v| v > p.value).count(), 10);
        // And nothing higher qualifies: the next rank has only nine beyond.
        assert_eq!(samples[..50].iter().filter(|&&v| v > 41.0).count(), 9);

        // Too few samples for any tail: the median is reported.
        let p = quantile(&samples[..12], 0.9);
        assert_eq!((p.percentile, p.value), (0.5, 6.0));
        // Order of the input does not matter.
        let mut shuffled: Vec<f64> = samples.iter().rev().copied().collect();
        shuffled.swap(3, 70);
        assert_eq!(quantile(&shuffled, 0.9), p90);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0,100): offer [5,25), offer [30,40), drive [50,95) which
        // itself holds a nested [60,80).
        let spans = vec![
            span("round", 0, 100, None),
            span("offer", 5, 25, Some(0)),
            span("offer", 30, 40, Some(0)),
            span("drive", 50, 95, Some(0)),
            span("inner", 60, 80, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![25, 20, 10, 25, 20]);
        let rows = layer_rows(&spans);
        let offer = rows.iter().find(|r| r.name == "offer").unwrap();
        assert_eq!((offer.count, offer.total_ns, offer.self_ns), (2, 30, 30));
        assert!((unattributed_share(&spans, "round") - 0.25).abs() < 1e-12);
        let mut dump = Vec::new();
        write_trace_json(&mut dump, &spans, "round").unwrap();
        let json: serde::Value = serde_json::from_str(&String::from_utf8(dump).unwrap()).unwrap();
        let Some(serde::Value::Array(layers)) = json.field("layers") else {
            panic!("no layer summary");
        };
        assert_eq!(layers.len(), 4);
        let Some(serde::Value::Array(dumped)) = json.field("spans") else {
            panic!("no spans");
        };
        assert_eq!(
            dumped[4].field("parent").and_then(serde::Value::as_u64),
            Some(3)
        );
    }
}
