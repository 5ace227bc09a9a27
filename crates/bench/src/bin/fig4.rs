//! Regenerates Fig. 4: the modified multicore system — which components
//! are stock and which the co-design adds, plus the prototype's silicon
//! accounting.

use ise_bench::print_table;
use ise_core::Fsb;
use ise_noc::Mesh;
use ise_types::addr::Addr;
use ise_types::config::SystemConfig;
use ise_types::FaultingStoreEntry;

fn main() {
    ise_bench::cli::switches("usage: fig4", []);
    let cfg = SystemConfig::isca23();
    let mesh = Mesh::new(cfg.noc);
    println!(
        "Fig. 4: {} tiles on a {}x{} mesh; per tile: core (ROB {}, SB {}), L1I/L1D, \
         L2 slice, directory slice.\n",
        mesh.nodes(),
        cfg.noc.mesh_x,
        cfg.noc.mesh_y,
        cfg.core.rob_entries,
        cfg.core.sb_entries
    );
    let fsb = Fsb::new(Addr::new(0x2000_0000), cfg.core.sb_entries);
    let rows = vec![
        vec!["addition".into(), "location".into(), "size / cost".into()],
        vec![
            "FSBC (controller)".into(),
            "per core, co-located with the store buffer".into(),
            "paper prototype: 354 CLB LUTs + 763 CLB registers (0.12% / 0.48% of core)".into(),
        ],
        vec![
            "FSB (ring buffer)".into(),
            "main memory, OS-pinned pages".into(),
            format!(
                "{} entries x {} B = {} B ({} page(s) pinned per core)",
                fsb.capacity(),
                FaultingStoreEntry::WIRE_BYTES,
                fsb.capacity() * FaultingStoreEntry::WIRE_BYTES,
                fsb.backing_pages().len()
            ),
        ],
        vec![
            "System registers".into(),
            "per-core ISA state".into(),
            "4 registers: base, mask, head, tail".into(),
        ],
        vec![
            "EInject".into(),
            "LLC<->memory boundary (evaluation only)".into(),
            "page bitmap + set/clr MMIO registers".into(),
        ],
        vec![
            "Core changes".into(),
            "SB drain path, exception pinning, IE serialization".into(),
            "no change to load/store queue or SB capacity (paper §5.2)".into(),
        ],
    ];
    print_table("co-design additions", &rows);
    println!(
        "Contrast with ASO speculation state: {} B of cache overlays alone \
         (see `table3` for the full requirement).",
        ise_aso::SpeculationAccounting::for_system(&cfg).cache_overlay_bytes
    );
}
