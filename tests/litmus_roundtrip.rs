//! Parser round-trip over the checked-in `litmus/` corpus: parsing a
//! file, pretty-printing it with `render_litmus`, and re-parsing the
//! result must yield an equal test (name, family, program, and
//! forbidden outcomes), and the rendering must be a fixed point. The
//! same property holds for the source-level (C11-like) dialect over
//! generated trisection cases.

use imprecise_store_exceptions::consistency::program::{Outcome, StmtOp};
use imprecise_store_exceptions::consistency::source::{MemOrder, SrcOp};
use imprecise_store_exceptions::fuzz::{
    case_seed, generate, generate_src, to_parsed, to_src_parsed, CampaignFinding, GenConfig,
    SrcGenConfig, TrisectFindingKind,
};
use imprecise_store_exceptions::fuzz::{FindingKind, FuzzCase, TrisectCase};
use imprecise_store_exceptions::litmus::parse::{parse_litmus, render_litmus};
use imprecise_store_exceptions::litmus::{parse_src_litmus, render_src_litmus};
use std::path::Path;

fn litmus_sources() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("litmus/ directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&p).expect("read litmus file"),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn every_checked_in_test_round_trips() {
    let sources = litmus_sources();
    assert_eq!(sources.len(), 4, "expected the 4-file litmus/ corpus");
    for (name, src) in sources {
        let first = parse_litmus(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rendered = render_litmus(&first);
        let second = parse_litmus(&rendered)
            .unwrap_or_else(|e| panic!("{name}: rendered text must re-parse: {e}\n{rendered}"));
        assert_eq!(first.test, second.test, "{name}: test drifted");
        assert_eq!(
            first.forbidden, second.forbidden,
            "{name}: forbidden outcomes drifted"
        );
        assert_eq!(
            rendered,
            render_litmus(&second),
            "{name}: rendering must be canonical"
        );
    }
}

/// Wraps a generated case the way the campaign wraps findings, so the
/// rendering path under test is the production one.
fn as_finding(case: FuzzCase) -> CampaignFinding<FuzzCase> {
    CampaignFinding {
        index: 0,
        seed: case.seed,
        kind: FindingKind::AxiomViolation,
        detail: String::new(),
        outcomes: Vec::new(),
        steps: 0,
        case,
    }
}

#[test]
fn generated_programs_round_trip_through_the_text_dialect() {
    // Property over *generated* programs (not just the curated corpus):
    // rendering any fuzz case and re-parsing it must reproduce the
    // program exactly, and the rendering must be a fixed point.
    let cfg = GenConfig::default();
    let mut saw_amo = false;
    let mut saw_fence = false;
    let mut saw_dep = false;
    for i in 0..300usize {
        let case = generate(case_seed(7, i), &cfg);
        for s in case.program.threads.iter().flatten() {
            match s.op {
                StmtOp::Amo { .. } => saw_amo = true,
                StmtOp::Fence(_) => saw_fence = true,
                _ => {}
            }
            saw_dep |= s.dep.is_some();
        }
        let parsed = to_parsed(&as_finding(case.clone()));
        let rendered = render_litmus(&parsed);
        let back = parse_litmus(&rendered)
            .unwrap_or_else(|e| panic!("case {i}: rendered text must re-parse: {e}\n{rendered}"));
        assert_eq!(
            back.test.program, case.program,
            "case {i}: program drifted through render→parse"
        );
        assert_eq!(
            rendered,
            render_litmus(&back),
            "case {i}: rendering must be canonical"
        );
    }
    // The property only means something if the corpus actually covers
    // the whole statement vocabulary.
    assert!(saw_amo, "no generated case contained an AMO");
    assert!(saw_fence, "no generated case contained a fence");
    assert!(saw_dep, "no generated case contained a dependency");
}

/// Wraps a generated trisection case the way the campaign wraps
/// findings, so the source-dialect rendering path under test is the
/// production one. The forbidden outcome (when the program has a load)
/// exercises the `forbid:` line round trip.
fn as_src_finding(case: TrisectCase) -> CampaignFinding<TrisectCase> {
    let mut outcomes = Vec::new();
    let first_load = case.program.threads.iter().enumerate().find_map(|(t, st)| {
        st.iter().find_map(|s| match s.op {
            SrcOp::Load { dst, .. } => Some((t, dst)),
            _ => None,
        })
    });
    if let Some(key) = first_load {
        let mut o = Outcome::new();
        o.insert(key, 1);
        outcomes.push(o);
    }
    CampaignFinding {
        index: 0,
        seed: case.seed,
        kind: TrisectFindingKind::LanguageAxiomEscape,
        detail: String::new(),
        outcomes,
        steps: 0,
        case,
    }
}

#[test]
fn generated_source_programs_round_trip_through_the_source_dialect() {
    // Property over generated *source* programs: rendering any
    // trisection case into the C11-like dialect and re-parsing it must
    // reproduce the program, model, and forbidden outcomes exactly, and
    // the rendering must be a fixed point.
    let cfg = SrcGenConfig::default();
    let mut saw_order = [false; 4];
    let mut saw_fence = false;
    let mut saw_dep = false;
    let mut saw_forbid = false;
    let mut saw_multi_thread = false;
    for i in 0..300usize {
        let case = generate_src(case_seed(7, i), &cfg);
        saw_multi_thread |= case.program.threads.len() > 1;
        for s in case.program.threads.iter().flatten() {
            let order = match s.op {
                SrcOp::Store { order, .. } | SrcOp::Load { order, .. } => order,
                SrcOp::Fence { order } => {
                    saw_fence = true;
                    order
                }
            };
            saw_order[match order {
                MemOrder::Relaxed => 0,
                MemOrder::Acquire => 1,
                MemOrder::Release => 2,
                MemOrder::SeqCst => 3,
            }] = true;
            saw_dep |= s.dep.is_some();
        }
        let parsed = to_src_parsed(&as_src_finding(case.clone()));
        saw_forbid |= !parsed.forbidden.is_empty();
        let rendered = render_src_litmus(&parsed);
        let back = parse_src_litmus(&rendered)
            .unwrap_or_else(|e| panic!("case {i}: rendered text must re-parse: {e}\n{rendered}"));
        assert_eq!(
            back.program, case.program,
            "case {i}: program drifted through render→parse"
        );
        assert_eq!(back.model, case.model, "case {i}: model drifted");
        assert_eq!(
            back.forbidden, parsed.forbidden,
            "case {i}: forbidden outcomes drifted"
        );
        assert_eq!(
            rendered,
            render_src_litmus(&back),
            "case {i}: rendering must be canonical"
        );
    }
    // The property only means something if the corpus covers the whole
    // memory-order vocabulary.
    assert!(
        saw_order.iter().all(|&b| b),
        "generated corpus missed a memory order: {saw_order:?}"
    );
    assert!(saw_fence, "no generated case contained a fence");
    assert!(saw_dep, "no generated case contained a dependency");
    assert!(saw_forbid, "no rendered case carried a forbid: line");
    assert!(saw_multi_thread, "no generated case was multi-threaded");
}

#[test]
fn malformed_source_dialect_inputs_are_rejected_with_line_numbers() {
    // The integration-level contract for hand-written reproducers:
    // every malformed or out-of-range annotation is a parse error that
    // names the offending line, never a panic.
    for (bad, needle) in [
        ("P0: W A 1\n", "memory-order suffix"),
        ("P0: W.foo A 1\n", "unknown memory order"),
        ("P0: W.acq A 1\n", "store cannot be acquire"),
        ("P0: R.rel A r0\n", "load cannot be release"),
        ("P0: F.rlx\n", "relaxed fence"),
        ("P0: W.rlx Z 1\n", "out of range"),
        ("P0: R.acq A r99\n", "register"),
        ("model: armv8\nP0: W.rlx A 1\n", "unknown model"),
        ("P0: W.rlx A 1\nP2: W.rlx A 1\n", "dense from P0"),
        ("P0: W.rlx A 1 @r3\n", "not produced"),
        ("P0: R.rlx A r0 ; F.sc @r0\n", "fence cannot carry"),
        ("P0: W.rlx A 1\nforbid: 0:r0\n", "expected"),
        ("forbid: 0:r0=1\n", "no threads"),
    ] {
        let e = parse_src_litmus(bad).unwrap_err();
        assert!(
            e.message.contains(needle),
            "`{}` should fail with `{needle}`, got: {}",
            bad.trim(),
            e.message
        );
    }
}
