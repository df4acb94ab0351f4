//! Named metrics with their unit and clock, and the result line.

use std::fmt::Write as _;

/// Which clock a number was read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Real elapsed time or real resources of this process.
    Wall,
    /// The engine's simulated PM/SSD clock and device counters:
    /// deterministic for a fixed single-client op sequence.
    Virtual,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// An ordered list of metrics being assembled.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn wall(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name, value, unit, Clock::Wall);
    }

    pub fn virt(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name, value, unit, Clock::Virtual);
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            clock,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Minimal JSON string escaping for the provenance record.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One human-readable line per metric: name, value, unit, clock.
pub fn metric_lines(metrics: &Metrics) -> String {
    let mut out = String::new();
    for m in &metrics.0 {
        let _ = writeln!(
            out,
            "metric {:<36} {:>18} {:<10} {}",
            m.name,
            m.value,
            m.unit,
            m.clock.name()
        );
    }
    out
}

/// The final result line: `correct`, `attempted`, `failed` and every
/// metric as `{"value", "unit"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_flat_json() {
        let mut m = Metrics::default();
        m.wall("setup_s", 0.8127, "s");
        m.virt("write_amp", f64::NAN, "ratio");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"write_amp\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
