//! Golden-figure regression tests.
//!
//! Each test re-runs one named experiment grid through the parallel sweep
//! harness and diffs the aggregated results document byte-for-byte against
//! the golden JSON committed under `tests/goldens/`.  Any change to the
//! engine, the cost model, the workload calibration or the results schema
//! that moves a figure shows up here as a readable diff.  The same results
//! are rendered into the grid's text table (what `sweep` prints to stderr),
//! which must hold one data row per workload, configuration or record.
//!
//! To regenerate a golden after an intentional change:
//!
//! ```text
//! cargo run --release -p misp-harness --bin sweep -- <grid> --out tests/goldens/<grid>.json
//! ```

use misp::harness::{grids, run_grid, SweepOptions, SweepResults, VerifyMode};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.json"))
}

/// Points to the first differing line so a golden mismatch reads like a
/// diff hunk instead of two 40 kB strings.
fn first_divergence(expected: &str, actual: &str) -> String {
    for (number, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!(
                "first difference at line {}:\n  golden: {e}\n  actual: {a}",
                number + 1
            );
        }
    }
    format!(
        "documents diverge in length: golden {} lines, actual {} lines",
        expected.lines().count(),
        actual.lines().count()
    )
}

/// Renders `results` into its grid's text table and returns the number of
/// data rows: the lines between the header separator and the next blank
/// line.
fn rendered_rows(results: &SweepResults) -> usize {
    let text =
        grids::render(results).unwrap_or_else(|| panic!("grid {} has no renderer", results.grid));
    let mut lines = text.lines();
    assert!(
        lines.any(|l| !l.is_empty() && l.chars().all(|c| c == '-')),
        "grid {} rendered no table:\n{text}",
        results.grid
    );
    lines.take_while(|l| !l.is_empty()).count()
}

fn check_grid(name: &str) -> SweepResults {
    check_grid_with(name, VerifyMode::SpotCheck)
}

fn check_grid_with(name: &str, verify: VerifyMode) -> SweepResults {
    let grid = grids::by_name(name).expect("named grid exists");
    let options = SweepOptions { threads: 2, verify };
    let results = run_grid(&grid, &options).expect("sweep succeeds");
    // One row per workload (fig4, fig5, table1) or per configuration (fig6);
    // the other tables list every record.
    let expected_rows = match name {
        "fig4" | "fig5" | "table1" => 16,
        "fig6" => 7,
        _ => results.records.len(),
    };
    assert_eq!(rendered_rows(&results), expected_rows, "{name} table rows");
    let actual = results.to_canonical_json().expect("serializable");
    let path = golden_path(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("could not read golden {}: {e}", path.display()));
    assert!(
        expected == actual,
        "grid {name} no longer matches its golden ({}).\n{}\n\
         If the change is intentional, regenerate with:\n  \
         cargo run --release -p misp-harness --bin sweep -- {name} --out tests/goldens/{name}.json",
        path.display(),
        first_divergence(&expected, &actual)
    );
    results
}

#[test]
fn fig4_matches_golden() {
    check_grid("fig4");
}

#[test]
fn fig5_matches_golden() {
    check_grid("fig5");
}

#[test]
fn fig6_matches_golden() {
    let results = check_grid("fig6");
    // Structural invariants the figure depicts: every configuration uses the
    // same eight sequencers, and the OS sees exactly the OMSs.
    for record in &results.records {
        let topo = record
            .topology
            .as_ref()
            .expect("fig6 records are topologies");
        assert_eq!(
            topo.total_sequencers, 8,
            "{} must use 8 sequencers",
            record.id
        );
        assert_eq!(
            topo.oms_count + topo.ams_count,
            8,
            "{} partitions OMSs and AMSs exactly",
            record.id
        );
    }
}

#[test]
fn table1_matches_golden() {
    check_grid("table1");
}

#[test]
fn table2_matches_golden() {
    check_grid("table2");
}

/// The cache-enabled grid is checked under the harness's strictest mode —
/// every parallel record re-verified against a serial re-execution — in the
/// same sweep that is diffed against the golden (the cache hierarchy adds
/// per-run mutable state, so it gets the full treatment).
#[test]
fn cache_sensitivity_matches_golden_under_full_verification() {
    check_grid_with("cache_sensitivity", VerifyMode::Full);
}

/// The open-loop scenario grid gets the same strict treatment: every
/// parallel record is re-verified serially in the sweep that is diffed
/// against the golden.  This pins the arrival streams, queue admission,
/// latency percentiles and the schema-v3 record fields byte-for-byte.
#[test]
fn service_load_matches_golden_under_full_verification() {
    check_grid_with("service_load", VerifyMode::Full);
}

/// The fleet grid — conservative multi-machine synchronization, the seeded
/// load balancer and the schema-v5 per-machine records — is pinned under
/// full verification: every parallel record re-verified serially in the
/// sweep that is diffed against the golden.
#[test]
fn fleet_service_matches_golden_under_full_verification() {
    check_grid_with("fleet_service", VerifyMode::Full);
}

/// The grids without a golden still render: one row per configuration
/// (fig7), per workload (both ablations) or per record (the one-load
/// `service_load` override).
#[test]
fn grids_without_goldens_render_their_tables() {
    let options = SweepOptions {
        threads: 2,
        verify: VerifyMode::Off,
    };
    for (grid, rows) in [
        (grids::fig7(), 9),
        (grids::ablation_ring0(), 16),
        (grids::ablation_pretouch(), 16),
        (grids::service_load_at(Some(75)), 8),
    ] {
        let results = run_grid(&grid, &options).expect("sweep succeeds");
        assert_eq!(results.records.len(), grid.runs.len());
        assert_eq!(rendered_rows(&results), rows, "{} table rows", grid.name);
    }
}

/// The goldens themselves must carry the schema version the harness emits,
/// so a schema bump forces a deliberate regeneration of every golden.
#[test]
fn goldens_carry_the_current_schema_version() {
    for name in [
        "fig4",
        "fig5",
        "fig6",
        "table1",
        "table2",
        "cache_sensitivity",
        "service_load",
        "fleet_service",
    ] {
        let text = std::fs::read_to_string(golden_path(name)).expect("golden readable");
        let needle = format!("\"schema_version\": {}", misp::harness::SCHEMA_VERSION);
        assert!(
            text.contains(&needle),
            "golden {name} does not declare schema version {}",
            misp::harness::SCHEMA_VERSION
        );
    }
}
