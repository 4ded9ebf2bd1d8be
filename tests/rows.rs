//! Experiment rows through their declarations: two cheap experiments
//! rendered as the printed table and the JSON, checked against the output
//! contract — key order, table shape, and the full counter delta.

use oneshot::core::{Counters, Reading};
use oneshot::vm::VmStats;
use oneshot_bench::experiments::{promotion_experiment, tak_experiment};
use oneshot_bench::metrics::{Json, Report};

/// Renders `report`'s JSON and parses it back, as a consumer reads it.
fn parsed_rows(report: Report) -> Vec<Json> {
    let text = report.json().render();
    Json::parse(&text).unwrap().as_arr().unwrap().to_vec()
}

fn keys(row: &Json) -> Vec<&str> {
    match row {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("row is not an object: {other:?}"),
    }
}

fn assert_table_shape(report: &Report, headers: &[&str]) {
    assert_eq!(report.headers, headers);
    for (i, cells) in report.cells.iter().enumerate() {
        assert_eq!(cells.len(), report.headers.len(), "row {i}: {cells:?}");
    }
    assert_eq!(report.table().lines().count(), report.cells.len() + 2);
}

/// Every field `stats` declares appears in `json` under its name, nested
/// structs recursively, with the same value.
fn assert_carries_every_field(stats: &dyn Counters, json: &Json) {
    stats.visit(&mut |name, reading| {
        let value = json.get(name).unwrap_or_else(|| panic!("delta lacks {name}"));
        match reading {
            Reading::Int(_, n) => assert_eq!(value.as_u64(), Some(n), "{name}"),
            Reading::Ints(_, ns) => {
                let got: Vec<_> = value.as_arr().unwrap().iter().map(Json::as_u64).collect();
                assert_eq!(got, ns.iter().map(|&n| Some(n)).collect::<Vec<_>>(), "{name}");
            }
            Reading::Tag(tag) => assert_eq!(value.as_str(), Some(tag), "{name}"),
            Reading::Nested(inner) => assert_carries_every_field(inner, value),
        }
    });
}

#[test]
fn promotion_rows_keep_their_keys_and_columns() {
    let rows = promotion_experiment(10);
    let report = Report::new(&rows);
    assert_table_shape(&report, &["chain-length", "strategy", "promotions", "walk-steps"]);
    let json = parsed_rows(report);
    assert_eq!(json.len(), rows.len());
    for (row, j) in rows.iter().zip(&json) {
        assert_eq!(keys(j), ["chain_length", "strategy", "promotions", "promotion_steps"]);
        assert_eq!(j.get("chain_length").unwrap().as_u64(), Some(10));
        assert_eq!(
            j.get("strategy").unwrap().as_str(),
            Some(format!("{:?}", row.strategy).as_str())
        );
        assert_eq!(j.get("promotions").unwrap().as_u64(), Some(row.promotions));
        assert_eq!(j.get("promotion_steps").unwrap().as_u64(), Some(row.promotion_steps));
    }
}

#[test]
fn tak_rows_keep_their_keys_columns_and_full_delta() {
    let rows = tak_experiment(12, 6, 0);
    let report = Report::new(&rows);
    assert_table_shape(
        &report,
        &["operator", "ms", "rel-time", "words-alloc", "rel-alloc", "stack-words", "slots-copied"],
    );
    assert_eq!(report.cells[0][2], "100%", "the first row is the baseline");
    let json = parsed_rows(report);
    assert_eq!(json.len(), rows.len());
    for (row, j) in rows.iter().zip(&json) {
        assert_eq!(keys(j), ["operator", "measurement"]);
        assert_eq!(j.get("operator").unwrap().as_str(), Some(row.op));
        let m = j.get("measurement").unwrap();
        assert_eq!(keys(m), ["ms", "delta"]);
        let delta = m.get("delta").unwrap();
        let declared: &VmStats = &row.m.delta;
        assert_carries_every_field(declared, delta);
    }
}
