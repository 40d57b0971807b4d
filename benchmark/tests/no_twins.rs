//! The benchmark names no frozen twin, so deleting the twins never has to
//! touch it.

use std::path::Path;

/// Identifiers of the frozen twins and of the twin-relative harness crate,
/// split so this file does not match itself.
const NEEDLES: [[&str; 2]; 10] = [
    ["Window", "Mode"],
    ["Handoff", "Mode"],
    ["Platform", "Mode"],
    ["Horizon", "Scan"],
    ["View", "Rebuild"],
    ["sched::", "oracle"],
    ["bands::", "reference"],
    ["dag::", "reference"],
    ["dagsched", "-bench"],
    ["dagsched", "_bench"],
];

fn scan(dir: &Path, hits: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != "out" && !name.starts_with('.') {
                scan(&path, hits);
            }
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for needle in NEEDLES.map(|n| n.concat()) {
            if text.contains(&needle) {
                hits.push(format!("{}: {needle}", path.display()));
            }
        }
    }
}

#[test]
fn benchmark_names_no_frozen_twin() {
    let mut hits = Vec::new();
    scan(Path::new(env!("CARGO_MANIFEST_DIR")), &mut hits);
    assert!(hits.is_empty(), "frozen twins named: {hits:#?}");
}
