//! Shared helpers for the evaluation harness.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` for the index and `EXPERIMENTS.md`
//! for paper-vs-measured results). This module holds the plumbing they
//! share: text tables, timing, and the multi-service applications used by
//! the Bifrost scaling studies.

use bifrost::{dsl, Strategy};
use cex_core::users::Population;
use microsim::app::{Application, EndpointDef, VersionSpec};
use microsim::latency::LatencyModel;
use microsim::workload::{EntryPoint, Workload};
use std::time::Duration;

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Renders one aligned text row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

/// Five-number summary (min, q1, median, q3, max) for boxplot-style rows.
pub fn five_number(values: &mut [f64]) -> (f64, f64, f64, f64, f64) {
    assert!(!values.is_empty(), "five-number summary needs data");
    let qs = cex_core::metrics::quantiles(values, &[0.0, 0.25, 0.5, 0.75, 1.0])
        .expect("non-empty input");
    (qs[0], qs[1], qs[2], qs[3], qs[4])
}

/// Builds an application with `n` independent services, each deployed in a
/// healthy baseline (`1.0.0`) and a slightly faster candidate (`2.0.0`) —
/// the substrate of the engine scaling studies (Figures 4.7–4.10).
pub fn n_service_app(n: usize) -> Application {
    let mut b = Application::builder();
    for i in 0..n {
        b.version(
            VersionSpec::new(format!("svc{i:03}"), "1.0.0")
                .capacity(10_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::web(12.0))),
        );
        b.version(
            VersionSpec::new(format!("svc{i:03}"), "2.0.0")
                .capacity(10_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::web(11.0))),
        );
    }
    b.build().expect("n-service app is statically valid")
}

/// One canary strategy per service, with `checks` health checks each.
pub fn n_strategies(n: usize, checks: usize) -> Vec<Strategy> {
    (0..n)
        .map(|i| {
            let check_lines: String = (0..checks)
                .map(|c| {
                    if c % 2 == 0 {
                        "  check error_rate < 0.2 over 1m every 30s min_samples 5\n".to_string()
                    } else {
                        "  check response_time < 500 over 1m every 30s min_samples 5\n".to_string()
                    }
                })
                .collect();
            dsl::parse(&format!(
                r#"strategy "s{i}" {{
  service "svc{i:03}" baseline "1.0.0" candidate "2.0.0"
  phase "canary" canary 20% for 5m {{
{check_lines}    on success complete
    on failure rollback
  }}
}}"#
            ))
            .expect("generated strategy is valid")
        })
        .collect()
}

/// A workload spreading traffic uniformly over the `n` services.
pub fn n_service_workload(app: &Application, n: usize, rate_rps: f64) -> Workload {
    let entries = (0..n)
        .map(|i| EntryPoint {
            service: app.service_id(&format!("svc{i:03}")).expect("service exists"),
            endpoint: "api".into(),
            weight: 1.0,
        })
        .collect();
    Workload {
        population: Population::single("all", 100_000),
        rate_rps,
        entries,
        profile: microsim::workload::RateProfile::Constant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_service_fixtures_are_consistent() {
        let app = n_service_app(4);
        assert_eq!(app.service_count(), 4);
        assert_eq!(app.version_count(), 8);
        let strategies = n_strategies(4, 3);
        assert_eq!(strategies.len(), 4);
        assert_eq!(strategies[0].check_count(), 3);
        let wl = n_service_workload(&app, 4, 100.0);
        assert_eq!(wl.entries.len(), 4);
    }

    #[test]
    fn five_number_summary() {
        let mut values = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let (min, q1, med, q3, max) = five_number(&mut values);
        assert_eq!((min, med, max), (1.0, 3.0, 5.0));
        assert_eq!((q1, q3), (2.0, 4.0));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12µs");
        assert_eq!(fmt_duration(Duration::from_micros(1_500)), "1.5ms");
        assert_eq!(fmt_duration(Duration::from_millis(2_500)), "2.50s");
        assert_eq!(row(&["a".into(), "bb".into()], &[3, 4]), "  a    bb");
    }
}
