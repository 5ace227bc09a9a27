//! Regenerates Table 1: classification of x86 exceptions by origin stage
//! and fault/trap/abort class.

use ise_bench::print_table;
use ise_types::exception::{ExceptionClass, OriginStage, X86_EXCEPTIONS};

fn main() {
    ise_bench::cli::switches("usage: table1", []);
    let mut rows = vec![vec![
        "class".to_string(),
        "stage".to_string(),
        "exceptions".to_string(),
    ]];
    for class in [
        ExceptionClass::Fault,
        ExceptionClass::Trap,
        ExceptionClass::Abort,
    ] {
        for stage in [
            OriginStage::Fetch,
            OriginStage::Decode,
            OriginStage::Execute,
            OriginStage::Memory,
            OriginStage::Machine,
        ] {
            let names: Vec<&str> = X86_EXCEPTIONS
                .iter()
                .filter(|e| e.class == class && e.origin == stage)
                .map(|e| e.name)
                .collect();
            if !names.is_empty() {
                rows.push(vec![class.to_string(), stage.to_string(), names.join(", ")]);
            }
        }
    }
    print_table("Table 1: x86 exception classification", &rows);
    println!(
        "Every exception above originates inside the core; only machine checks are \
         imprecise today. The paper adds the '{}' origin: compute in the\n\
         cache/memory hierarchy detecting store exceptions post-retirement.",
        OriginStage::Hierarchy
    );
}
