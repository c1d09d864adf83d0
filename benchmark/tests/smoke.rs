//! Smoke test: every workload at the `--quick` size, untraced and traced.
//!
//! Checks that each metric `BENCHMARK.json` declares is printed with its
//! unit, that the output checks pass, that a seed repeats its digest and
//! its per-layer counts exactly (with tracing on or off), and that another
//! seed gives another digest.

use std::collections::BTreeMap;
use std::process::Command;

/// `(name, unit)` of every entry in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().unwrap_or_default().to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .unwrap_or_default()
                .to_string();
            (name, unit)
        })
        .collect()
}

struct Output {
    /// `metric → (value, unit)` from the `<workload>.<metric> <value> <unit>` lines.
    metrics: BTreeMap<String, (String, String)>,
    digest: String,
    result: String,
}

fn run(workload: &str, seed: u64, trace: bool) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_amnesia-benchmark"))
        .args(["--quick", "--workload", workload, "--seconds", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} seed {seed}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prefix = format!("{workload}.");
    let mut metrics = BTreeMap::new();
    let mut digest = String::new();
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let fields: Vec<&str> = rest.split(' ').collect();
        if fields[0] == "digest" {
            digest = fields[1].to_string();
        } else if let [name, value, unit] = fields[..] {
            metrics.insert(name.to_string(), (value.to_string(), unit.to_string()));
        }
    }
    let result = stdout.lines().last().unwrap_or_default().to_string();
    Output {
        metrics,
        digest,
        result,
    }
}

/// Per-layer metrics that count work rather than time it, so a seed
/// repeats them exactly.
fn is_count(name: &str, unit: &str) -> bool {
    matches!(unit, "count/op" | "count" | "ms" | "bytes/record")
        || matches!(name, "fleet.coalesced_share" | "fleet.queue_wait_p99_us")
}

#[test]
fn every_workload_reports_checks_and_repeats_per_seed() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for workload in ["interactive", "burst", "mixed", "signup"] {
        let plain = run(workload, 5, false);
        let traced = run(workload, 5, true);
        let again = run(workload, 5, true);
        let other = run(workload, 6, false);

        for (out, wanted) in [(&plain, &end_to_end), (&traced, &per_layer)] {
            assert!(
                out.result.starts_with("{\"correct\":true,")
                    && out.result.contains("\"failed\":0,"),
                "{workload}: {}",
                out.result
            );
            for (name, unit) in wanted {
                let (value, printed_unit) = out
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
                assert_eq!(printed_unit, unit, "{workload}: {name}");
                assert!(
                    value.parse::<f64>().is_ok_and(f64::is_finite),
                    "{name} = {value}"
                );
                assert!(out.result.contains(&format!("\"{name}\":{{\"value\":")));
            }
        }
        for (name, unit) in &end_to_end {
            let value: f64 = plain.metrics[name].0.parse().unwrap_or(0.0);
            assert!(value > 0.0, "{workload}: {name} = {value} ({unit})");
        }

        assert_eq!(plain.digest.len(), 64, "{workload}: digest printed");
        assert_eq!(
            plain.digest, traced.digest,
            "{workload}: tracing changed results"
        );
        assert_eq!(
            traced.digest, again.digest,
            "{workload}: seed did not repeat"
        );
        assert_ne!(
            plain.digest, other.digest,
            "{workload}: seed did not matter"
        );
        for (name, unit) in per_layer.iter().filter(|(n, u)| is_count(n, u)) {
            assert_eq!(
                traced.metrics[name], again.metrics[name],
                "{workload}: {name} ({unit}) differs between runs of one seed"
            );
        }
    }
}
