//! Regenerates Table 2: the simulated system parameters.

use ise_bench::print_table;
use ise_types::config::SystemConfig;

fn main() {
    ise_bench::cli::switches("usage: table2", []);
    let c = SystemConfig::isca23();
    let rows = vec![
        vec!["component".into(), "parameters".into()],
        vec![
            "Core".into(),
            format!(
                "{}x {}-way OoO, {}, {}-entry ROB, {}-entry SB",
                c.cores, c.core.width, c.core.model, c.core.rob_entries, c.core.sb_entries
            ),
        ],
        vec![
            "TLB".into(),
            format!(
                "L1(I,D): {} entries, L2: {} entries",
                c.tlb.l1_entries, c.tlb.l2_entries
            ),
        ],
        vec![
            "L1 caches".into(),
            format!(
                "{} KB {}-way L1D, 64-byte blocks, {} MSHRs, {}-cycle latency",
                c.l1d.capacity_bytes / 1024,
                c.l1d.ways,
                c.l1d.mshrs,
                c.l1d.latency
            ),
        ],
        vec![
            "L2".into(),
            format!(
                "{} MB/tile, {}-way, {}-cycle access, non-inclusive",
                c.l2.capacity_bytes / (1024 * 1024),
                c.l2.ways,
                c.l2.latency
            ),
        ],
        vec!["Coherence".into(), "Directory-based MESI".into()],
        vec![
            "Interconnect".into(),
            format!(
                "{}x{} 2D mesh, {} B links, {} cycles/hop",
                c.noc.mesh_x, c.noc.mesh_y, c.noc.link_bytes, c.noc.hop_latency
            ),
        ],
        vec![
            "Memory".into(),
            format!("{} cycle access latency (default)", c.memory.access_latency),
        ],
    ];
    print_table("Table 2: system parameters (SystemConfig::isca23)", &rows);
    ise_bench::emit_report(
        "table2",
        &ise_bench::report_sections([("config", ise_types::ToJson::to_json(&c))]),
    );
}
