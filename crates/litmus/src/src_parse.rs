//! A text dialect for *source-level* (C11-like) litmus tests.
//!
//! ```text
//! # a message-passing reproducer
//! name: trisect/mp
//! model: wc
//! P0: W.rlx B 1 ; W.rel A 1
//! P1: R.acq A r0 ; R.rlx B r1 @r0
//! forbid: 1:r0=1 & 1:r1=0
//! ```
//!
//! The dialect mirrors the hardware one ([`parse`](crate::parse)) with
//! memory-order annotations instead of bare opcodes:
//!
//! * Statements: `W.<ord> <loc> <value>`, `R.<ord> <loc> <reg>`,
//!   `F.<ord>`, with `<ord>` one of `rlx`, `acq`, `rel`, `sc` —
//!   constrained per operation exactly as [`SrcProgram`] is (no
//!   `W.acq`, no `R.rel`, no `F.rlx`). `@<reg>` appends a dependency.
//! * `model:` names the hardware model the reproducer was found
//!   against (`sc` | `pc` | `wc`) — the trisection replay lowers the
//!   program through that model's mapping table.
//! * `forbid:` lines list *language-forbidden* outcomes that were
//!   observed through a buggy mapping; replay asserts they stay
//!   unobservable through the correct one.
//!
//! Files use the `.srclitmus` extension so the hardware-dialect corpus
//! loader ([`load_litmus_dir`](crate::parse::load_litmus_dir)) skips
//! them and [`load_src_litmus_dir`] picks them up.

use crate::parse::ParseError;
use ise_consistency::program::{Loc, Outcome};
use ise_consistency::source::{MemOrder, SrcProgram, SrcStmt};
use ise_types::instr::Reg;
use ise_types::model::ConsistencyModel;

/// A parsed source-level test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSrcLitmus {
    /// Test name (`anonymous` when the file has no `name:` line).
    pub name: String,
    /// The hardware model the program is lowered to on replay.
    pub model: ConsistencyModel,
    /// The source program.
    pub program: SrcProgram,
    /// Language-forbidden outcomes the reproducer once exhibited.
    pub forbidden: Vec<Outcome>,
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn loc_limit_letter() -> char {
    (b'A' + Loc::LIMIT - 1) as char
}

fn parse_loc(tok: &str, line: usize) -> Result<Loc, ParseError> {
    let mut chars = tok.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) if c.is_ascii_uppercase() => {
            let loc = Loc(c as u8 - b'A');
            if loc.0 < Loc::LIMIT {
                Ok(loc)
            } else {
                Err(err(
                    line,
                    format!(
                        "location `{c}` is out of range: the machine supports {} locations \
                         (A..{})",
                        Loc::LIMIT,
                        loc_limit_letter()
                    ),
                ))
            }
        }
        _ => Err(err(
            line,
            format!("expected a location A..{}, got `{tok}`", loc_limit_letter()),
        )),
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseError> {
    tok.strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| n < 32)
        .map(Reg)
        .ok_or_else(|| err(line, format!("expected a register r0..r31, got `{tok}`")))
}

fn parse_value(tok: &str, line: usize) -> Result<u64, ParseError> {
    tok.parse::<u64>()
        .map_err(|_| err(line, format!("expected a value, got `{tok}`")))
}

fn parse_order(tok: &str, line: usize) -> Result<MemOrder, ParseError> {
    match tok {
        "rlx" => Ok(MemOrder::Relaxed),
        "acq" => Ok(MemOrder::Acquire),
        "rel" => Ok(MemOrder::Release),
        "sc" => Ok(MemOrder::SeqCst),
        other => Err(err(
            line,
            format!("unknown memory order `{other}` (rlx|acq|rel|sc)"),
        )),
    }
}

/// Splits `W.rel` into (`W`, order), validating the annotation exists.
fn parse_opcode(tok: &str, line: usize) -> Result<(&str, MemOrder), ParseError> {
    let (op, ord) = tok.split_once('.').ok_or_else(|| {
        err(
            line,
            format!("`{tok}` needs a memory-order suffix (e.g. `{tok}.rlx`)"),
        )
    })?;
    Ok((op, parse_order(ord, line)?))
}

fn parse_src_stmt(text: &str, line: usize) -> Result<SrcStmt, ParseError> {
    let (body, dep) = match text.rsplit_once('@') {
        Some((body, dep_tok)) => (body.trim(), Some(parse_reg(dep_tok.trim(), line)?)),
        None => (text.trim(), None),
    };
    let toks: Vec<&str> = body.split_whitespace().collect();
    let mut stmt = match toks.as_slice() {
        [op, loc, value_or_reg] => {
            let (opcode, order) = parse_opcode(op, line)?;
            match opcode {
                "W" => {
                    if order == MemOrder::Acquire {
                        return Err(err(line, "a store cannot be acquire (`W.acq`)"));
                    }
                    SrcStmt::store(
                        parse_loc(loc, line)?,
                        parse_value(value_or_reg, line)?,
                        order,
                    )
                }
                "R" => {
                    if order == MemOrder::Release {
                        return Err(err(line, "a load cannot be release (`R.rel`)"));
                    }
                    SrcStmt::load(parse_loc(loc, line)?, parse_reg(value_or_reg, line)?, order)
                }
                other => return Err(err(line, format!("unrecognized opcode `{other}`"))),
            }
        }
        [op] => {
            let (opcode, order) = parse_opcode(op, line)?;
            if opcode != "F" {
                return Err(err(line, format!("unrecognized statement `{body}`")));
            }
            if order == MemOrder::Relaxed {
                return Err(err(line, "a relaxed fence is a no-op (`F.rlx`)"));
            }
            SrcStmt::fence(order)
        }
        _ => return Err(err(line, format!("unrecognized statement `{body}`"))),
    };
    if let Some(r) = dep {
        if matches!(stmt.op, ise_consistency::source::SrcOp::Fence { .. }) {
            return Err(err(line, "a fence cannot carry a dependency"));
        }
        stmt = stmt.depending_on(r);
    }
    Ok(stmt)
}

fn parse_model(tok: &str, line: usize) -> Result<ConsistencyModel, ParseError> {
    match tok.trim().to_ascii_lowercase().as_str() {
        "sc" => Ok(ConsistencyModel::Sc),
        "pc" | "tso" => Ok(ConsistencyModel::Pc),
        "wc" => Ok(ConsistencyModel::Wc),
        other => Err(err(line, format!("unknown model `{other}` (sc|pc|wc)"))),
    }
}

fn parse_outcome(text: &str, line: usize) -> Result<Outcome, ParseError> {
    let mut outcome = Outcome::new();
    for clause in text.split('&') {
        let clause = clause.trim();
        let (lhs, value) = clause
            .split_once('=')
            .ok_or_else(|| err(line, format!("expected `<t>:<reg>=<v>`, got `{clause}`")))?;
        let (thread, reg) = lhs
            .split_once(':')
            .ok_or_else(|| err(line, format!("expected `<t>:<reg>`, got `{lhs}`")))?;
        let t: usize = thread
            .trim()
            .parse()
            .map_err(|_| err(line, format!("bad thread id `{thread}`")))?;
        let r = parse_reg(reg.trim(), line)?;
        let v = parse_value(value.trim(), line)?;
        outcome.insert((t, r), v);
    }
    if outcome.is_empty() {
        return Err(err(line, "empty outcome"));
    }
    Ok(outcome)
}

/// Parses one source-level litmus test from its text form.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line.
pub fn parse_src_litmus(src: &str) -> Result<ParsedSrcLitmus, ParseError> {
    let mut name: Option<String> = None;
    let mut model = ConsistencyModel::Wc;
    let mut threads: Vec<(usize, Vec<SrcStmt>)> = Vec::new();
    let mut forbidden = Vec::new();

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, rest) = line
            .split_once(':')
            .ok_or_else(|| err(lineno, "expected `key: value`"))?;
        let key = key.trim();
        let rest = rest.trim();
        match key {
            "name" => name = Some(rest.to_string()),
            "model" => model = parse_model(rest, lineno)?,
            "forbid" => forbidden.push(parse_outcome(rest, lineno)?),
            k if k.starts_with('P') => {
                let tid: usize = k[1..]
                    .parse()
                    .map_err(|_| err(lineno, format!("bad thread label `{k}`")))?;
                let stmts = rest
                    .split(';')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|s| parse_src_stmt(s, lineno))
                    .collect::<Result<Vec<_>, _>>()?;
                if stmts.is_empty() {
                    return Err(err(lineno, "thread with no statements"));
                }
                threads.push((tid, stmts));
            }
            other => return Err(err(lineno, format!("unknown key `{other}`"))),
        }
    }

    if threads.is_empty() {
        return Err(err(0, "no threads (P0:, P1:, ...) found"));
    }
    threads.sort_by_key(|&(tid, _)| tid);
    for (expect, &(tid, _)) in threads.iter().enumerate() {
        if tid != expect {
            return Err(err(
                0,
                format!("thread ids must be dense from P0; missing P{expect}"),
            ));
        }
    }
    // Dangling dependencies panic in SrcProgram::new; surface them as a
    // parse error instead.
    let stmt_lists: Vec<Vec<SrcStmt>> = threads.into_iter().map(|(_, s)| s).collect();
    for (t, stmts) in stmt_lists.iter().enumerate() {
        let mut produced: Vec<Reg> = Vec::new();
        for s in stmts {
            if let Some(r) = s.dep {
                if !produced.contains(&r) {
                    return Err(err(
                        0,
                        format!("thread {t}: dependency on {r} not produced by an earlier load"),
                    ));
                }
            }
            if let Some(dst) = s.produced() {
                produced.push(dst);
            }
        }
    }
    let program = SrcProgram::new(stmt_lists);
    Ok(ParsedSrcLitmus {
        name: name.unwrap_or_else(|| "anonymous".into()),
        model,
        program,
        forbidden,
    })
}

/// The canonical `model:` token.
fn model_token(model: ConsistencyModel) -> &'static str {
    match model {
        ConsistencyModel::Sc => "sc",
        ConsistencyModel::Pc => "pc",
        ConsistencyModel::Wc => "wc",
    }
}

fn render_src_stmt(s: &SrcStmt, out: &mut String) {
    use ise_consistency::source::SrcOp;
    use std::fmt::Write;
    let loc_name = |loc: Loc| {
        assert!(
            loc.0 < Loc::LIMIT,
            "the source dialect only names locations A..{}",
            loc_limit_letter()
        );
        (b'A' + loc.0) as char
    };
    match s.op {
        SrcOp::Store { loc, value, order } => {
            write!(out, "W.{} {} {value}", order.token(), loc_name(loc)).unwrap()
        }
        SrcOp::Load { loc, dst, order } => {
            write!(out, "R.{} {} {dst}", order.token(), loc_name(loc)).unwrap()
        }
        SrcOp::Fence { order } => write!(out, "F.{}", order.token()).unwrap(),
    }
    if let Some(r) = s.dep {
        use std::fmt::Write;
        write!(out, " @{r}").unwrap();
    }
}

/// Pretty-prints a parsed source test back into the dialect.
///
/// Canonical (fixed point under `parse ∘ render`), like
/// [`render_litmus`](crate::parse::render_litmus).
///
/// # Panics
///
/// Panics if the program uses a location at or beyond [`Loc::LIMIT`].
pub fn render_src_litmus(p: &ParsedSrcLitmus) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "name: {}", p.name).unwrap();
    writeln!(out, "model: {}", model_token(p.model)).unwrap();
    for (t, stmts) in p.program.threads.iter().enumerate() {
        write!(out, "P{t}:").unwrap();
        for (i, s) in stmts.iter().enumerate() {
            out.push_str(if i == 0 { " " } else { " ; " });
            render_src_stmt(s, &mut out);
        }
        out.push('\n');
    }
    for f in &p.forbidden {
        let clauses: Vec<String> = f.iter().map(|((t, r), v)| format!("{t}:{r}={v}")).collect();
        writeln!(out, "forbid: {}", clauses.join(" & ")).unwrap();
    }
    out
}

/// Parses every `*.srclitmus` file directly inside `dir`, sorted by
/// file name — the source-level regression corpus loader. A missing
/// directory is an empty corpus.
///
/// # Errors
///
/// Returns a message naming the unreadable or unparseable file.
pub fn load_src_litmus_dir(
    dir: &std::path::Path,
) -> Result<Vec<(String, ParsedSrcLitmus)>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    let mut files: Vec<std::path::PathBuf> = entries
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    files.retain(|p| p.extension().is_some_and(|x| x == "srclitmus"));
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let parsed = parse_src_litmus(&src).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((name, parsed))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_consistency::source::SrcOp;

    const MP: &str = r#"
# release/acquire message passing
name: trisect/mp
model: wc
P0: W.rlx B 1 ; W.rel A 1
P1: R.acq A r0 ; R.rlx B r1 @r0
forbid: 1:r0=1 & 1:r1=0
"#;

    #[test]
    fn parses_the_annotated_mp_test() {
        let p = parse_src_litmus(MP).expect("parses");
        assert_eq!(p.name, "trisect/mp");
        assert_eq!(p.model, ConsistencyModel::Wc);
        assert_eq!(p.program.threads.len(), 2);
        assert_eq!(
            p.program.threads[0][1].op,
            SrcOp::Store {
                loc: Loc(0),
                value: 1,
                order: MemOrder::Release
            }
        );
        assert_eq!(
            p.program.threads[1][0].op,
            SrcOp::Load {
                loc: Loc(0),
                dst: Reg(0),
                order: MemOrder::Acquire
            }
        );
        assert_eq!(p.program.threads[1][1].dep, Some(Reg(0)));
        assert_eq!(p.forbidden.len(), 1);
    }

    #[test]
    fn round_trips_canonically() {
        let first = parse_src_litmus(MP).unwrap();
        let rendered = render_src_litmus(&first);
        let second = parse_src_litmus(&rendered)
            .unwrap_or_else(|e| panic!("rendered text must re-parse: {e}\n{rendered}"));
        assert_eq!(first.program, second.program);
        assert_eq!(first.model, second.model);
        assert_eq!(first.forbidden, second.forbidden);
        assert_eq!(rendered, render_src_litmus(&second));
    }

    #[test]
    fn every_order_token_parses_where_legal() {
        let src = "model: pc\nP0: W.rlx A 1 ; W.rel A 2 ; W.sc A 3 ; F.acq ; F.rel ; F.sc\n\
                   P1: R.rlx A r0 ; R.acq A r1 ; R.sc A r2\n";
        let p = parse_src_litmus(src).expect("parses");
        assert_eq!(p.model, ConsistencyModel::Pc);
        assert_eq!(p.program.len(), 9);
    }

    #[test]
    fn missing_annotation_is_an_error() {
        let e = parse_src_litmus("P0: W A 1\n").unwrap_err();
        assert!(
            e.message.contains("memory-order suffix"),
            "got: {}",
            e.message
        );
        assert_eq!(e.line, 1);
    }

    #[test]
    fn malformed_annotations_are_errors() {
        for (bad, needle) in [
            ("P0: W.foo A 1\n", "unknown memory order"),
            ("P0: W.acq A 1\n", "store cannot be acquire"),
            ("P0: R.rel A r0\n", "load cannot be release"),
            ("P0: F.rlx\n", "relaxed fence"),
            ("P0: X.rlx A 1\n", "unrecognized opcode"),
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

    #[test]
    fn out_of_range_locations_are_rejected() {
        for bad in ["P0: W.rlx I 1\n", "P0: R.acq Z r0\n"] {
            let e = parse_src_litmus(bad).unwrap_err();
            assert!(e.message.contains("out of range"), "got: {}", e.message);
        }
    }

    #[test]
    fn unknown_model_is_an_error() {
        let e = parse_src_litmus("model: x86\nP0: W.rlx A 1\n").unwrap_err();
        assert!(e.message.contains("unknown model"), "got: {}", e.message);
    }

    #[test]
    fn fence_with_dependency_is_an_error() {
        let src = "P0: R.rlx A r0 ; F.sc @r0\n";
        let e = parse_src_litmus(src).unwrap_err();
        assert!(
            e.message.contains("fence cannot carry"),
            "got: {}",
            e.message
        );
    }

    #[test]
    fn dangling_dependency_is_an_error_not_a_panic() {
        let e = parse_src_litmus("P0: W.rlx A 1 @r5\n").unwrap_err();
        assert!(e.message.contains("not produced"), "got: {}", e.message);
    }

    #[test]
    fn model_line_tokens_round_trip() {
        for model in ConsistencyModel::ALL {
            let src = format!("model: {}\nP0: W.rlx A 1\n", model_token(model));
            assert_eq!(parse_src_litmus(&src).unwrap().model, model);
        }
    }

    #[test]
    fn loader_skips_hardware_dialect_files() {
        // The `.srclitmus` loader must not pick up the `.litmus`
        // regression corpus sitting in the same directory (and vice
        // versa — `load_litmus_dir` filters on `.litmus`).
        let dir =
            std::env::temp_dir().join(format!("ise-srclitmus-loader-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("hw.litmus"), "P0: W A 1\n").unwrap();
        std::fs::write(dir.join("src.srclitmus"), "model: wc\nP0: W.rel A 1\n").unwrap();
        let loaded = load_src_litmus_dir(&dir).expect("loads");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, "src.srclitmus");
        let hw = crate::parse::load_litmus_dir(&dir).expect("loads");
        assert_eq!(hw.len(), 1);
        assert_eq!(hw[0].0, "hw.litmus");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        let loaded =
            load_src_litmus_dir(std::path::Path::new("/nonexistent/src-regressions")).unwrap();
        assert!(loaded.is_empty());
    }
}
