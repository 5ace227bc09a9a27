//! Regenerates Table 4: the memory-consistency formalism notation, as
//! implemented in this repository.

use ise_bench::print_table;

fn main() {
    ise_bench::cli::switches("usage: table4", []);
    let rows = vec![
        vec![
            "notation".into(),
            "definition".into(),
            "implementation".into(),
        ],
        vec![
            "L(A)".into(),
            "Load latest value from address A".into(),
            "consistency::StmtOp::Read / machine load transition".into(),
        ],
        vec![
            "S(A, D)".into(),
            "Store data D to address A".into(),
            "consistency::StmtOp::Write / store-buffer drain".into(),
        ],
        vec![
            "S_OS(A, D)".into(),
            "OS stores data D at address A".into(),
            "os::OsKernel::handle_imprecise apply step".into(),
        ],
        vec![
            "F".into(),
            "Fence as a memory ordering primitive".into(),
            "consistency::StmtOp::Fence(Full|StoreStore|LoadLoad)".into(),
        ],
        vec![
            "X <p Y".into(),
            "X before Y in program order on the same core".into(),
            "axiom::po_pairs".into(),
        ],
        vec![
            "X <m Y".into(),
            "X before Y in the global memory order".into(),
            "axiom acyclicity over ppo ∪ rf ∪ co ∪ fr".into(),
        ],
        vec![
            "PUT(S(A))".into(),
            "Send S(A) to the architectural interface".into(),
            "core_hw::Fsbc::drain / OrderEvent::Put".into(),
        ],
        vec![
            "GET".into(),
            "Retrieve one faulting store from the interface".into(),
            "core_hw::Fsb::pop_head / OrderEvent::Get".into(),
        ],
        vec![
            "DETECT".into(),
            "Detect an exception".into(),
            "cpu::StoreBuffer::pump denied response / OrderEvent::Detect".into(),
        ],
        vec![
            "RESOLVE".into(),
            "Resolve the exception and resume execution".into(),
            "os handler completion / OrderEvent::Resolve".into(),
        ],
        vec![
            "MAX<m({S(A)})".into(),
            "Latest value in memory order among stores to A".into(),
            "axiom coherence-order maximum (reads-from candidates)".into(),
        ],
    ];
    print_table("Table 4: formalism notation -> implementation map", &rows);
    println!(
        "Mandated order per faulting store: DETECT <m PUT(S(A)) <m GET <m S_OS(A) <m RESOLVE\n\
         (enforced at runtime by core_hw::ContractMonitor; see `table5`)."
    );
}
