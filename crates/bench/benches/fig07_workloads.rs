//! Figure 7: workload descriptions and the synthetic parameters used to
//! approximate them.

use ifence_bench::{paper_params, print_header};
use ifence_stats::ColumnTable;
use ifence_workloads::presets;

fn main() {
    let params = paper_params();
    let _run =
        print_header("Figure 7", "Workloads (synthetic approximations; see PAPER.md)", &params);
    let mut table = ColumnTable::new([
        "Workload",
        "Description",
        "mem frac",
        "store frac",
        "CS rate",
        "locks",
        "shared frac",
    ]);
    for w in presets::all_presets() {
        table.push_row([
            w.name.clone(),
            w.description.clone(),
            format!("{:.2}", w.mem_fraction),
            format!("{:.2}", w.store_fraction),
            format!("{:.4}", w.critical_section_rate),
            w.locks.to_string(),
            format!("{:.2}", w.shared_fraction),
        ]);
    }
    println!("{table}");
}
