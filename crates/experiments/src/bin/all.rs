//! Run every experiment in DESIGN.md §5 and print all tables (the source of
//! the numbers recorded in EXPERIMENTS.md). `--quick` shrinks the grids,
//! `--csv` adds machine-readable output, and `--markdown` prints each
//! table as Markdown instead, a complete report:
//!
//! ```sh
//! cargo run --release -p dagsched-experiments --bin all -- --markdown > report.md
//! ```

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let start = std::time::Instant::now();
    for t in dagsched_experiments::run_all(flag("--quick")) {
        if flag("--markdown") {
            println!("{}", t.to_markdown());
        } else {
            println!("{}", t.render());
        }
        if flag("--csv") {
            println!("{}", t.to_csv());
        }
    }
    eprintln!("[all experiments done in {:.1?}]", start.elapsed());
}
