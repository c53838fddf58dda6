//! File-based input/output for the paper's `.datalog` workflow.
//!
//! The paper's architecture (§4) reads "a .datalog file, which, along with
//! the rules of the Datalog program, provides paths for the input and
//! output tables". This module implements that workflow over the
//! prepare-once API: relations named in `.input` directives load from
//! `<facts-dir>/<name>.facts` (whitespace- or comma-separated integers,
//! one fact per line, `#`/`//` comments) into a [`Database`], the
//! [`PreparedProgram`] runs, and relations named in `.output` directives
//! are written to `<out-dir>/<name>.csv`. The program is compiled exactly
//! once — input arities come from the compiled plan, not a second parse.

use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use recstep_common::{Error, Result};
use recstep_datalog::parser::parse_fact_line;

use crate::db::Database;
use crate::prepared::PreparedProgram;
use crate::stats::EvalStats;

/// Load whitespace/comma-separated integer facts from `path` into relation
/// `name` (created with `arity` if absent). Returns the number of facts
/// loaded.
pub fn load_facts_file(db: &mut Database, name: &str, arity: usize, path: &Path) -> Result<usize> {
    let file = fs::File::open(path)
        .map_err(|e| Error::exec(format!("cannot open {}: {e}", path.display())))?;
    let reader = BufReader::new(file);
    let mut rows = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let Some(vals) = parse_fact_line(&line) else {
            continue;
        };
        if vals.len() != arity {
            return Err(Error::exec(format!(
                "{}:{}: expected {} values, found {}",
                path.display(),
                lineno + 1,
                arity,
                vals.len()
            )));
        }
        rows.push(vals);
    }
    let n = rows.len();
    db.load_relation(name, arity, &rows)?;
    Ok(n)
}

/// Write a relation as CSV to `path`. Returns the number of rows written.
pub fn write_relation_csv(db: &Database, name: &str, path: &Path) -> Result<usize> {
    let rel = db
        .relation(name)
        .ok_or_else(|| Error::exec(format!("unknown relation '{name}'")))?;
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut w = BufWriter::new(fs::File::create(path)?);
    for row in rel.iter_rows() {
        for c in 0..row.len() {
            if c > 0 {
                w.write_all(b",")?;
            }
            write!(w, "{}", row.get(c))?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(rel.len())
}

/// Run the full `.datalog` file workflow over an already-prepared program:
/// load every `.input` relation from `facts_dir/<name>.facts` into `db`,
/// evaluate, and write every `.output` relation to `out_dir/<name>.csv`.
/// Returns the evaluation statistics plus `(relation, rows)` pairs written.
///
/// A relation some rule body reads must come from somewhere: derived by
/// the program, declared `.input`, given inline facts, or already in
/// `db`. Otherwise the run fails naming it, rather than evaluating the
/// relation as silently empty (a forgotten `.input` line).
pub fn run_datalog_file(
    prepared: &PreparedProgram,
    db: &mut Database,
    facts_dir: &Path,
    out_dir: &Path,
) -> Result<(EvalStats, Vec<(String, usize)>)> {
    // Load .input relations before evaluation (arities from the plan).
    for name in prepared.inputs() {
        let arity = prepared
            .compiled()
            .arity_of(name)
            .ok_or_else(|| Error::exec(format!("unknown input relation '{name}'")))?;
        load_facts_file(db, name, arity, &facts_dir.join(format!("{name}.facts")))?;
    }
    if let Some(name) = unprovided_body_relation(prepared, db) {
        return Err(Error::exec(format!(
            "relation '{name}' is read by a rule but never provided: declare \
             `.input {name}`, state its facts inline, or derive it"
        )));
    }
    let stats = prepared.run(db)?;
    // Write .output relations (default: every IDB when none declared).
    let outputs: Vec<String> = if prepared.outputs().is_empty() {
        prepared
            .compiled()
            .idb_names()
            .map(str::to_string)
            .collect()
    } else {
        prepared.outputs().to_vec()
    };
    let mut written = Vec::with_capacity(outputs.len());
    for name in outputs {
        let rows = write_relation_csv(db, &name, &out_dir.join(format!("{name}.csv")))?;
        written.push((name, rows));
    }
    Ok((stats, written))
}

/// The first relation a rule body reads (positively or negated) that is
/// not derived, not `.input`, has no inline facts, and is absent from `db`.
fn unprovided_body_relation<'p>(prepared: &'p PreparedProgram, db: &Database) -> Option<&'p str> {
    let prog = prepared.compiled();
    let provided = |name: &str| {
        prog.idb_names().any(|n| n == name)
            || prog.inputs.iter().any(|n| n == name)
            || prog.facts.iter().any(|(n, _)| n == name)
            || db.relation(name).is_some()
    };
    prog.strata
        .iter()
        .flat_map(|s| &s.idbs)
        .flat_map(|idb| &idb.subqueries)
        .flat_map(|sq| {
            let scans = sq.scans.iter().map(|s| s.rel.as_str());
            scans.chain(sq.negations.iter().map(|n| n.rel.as_str()))
        })
        .find(|name| !provided(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("recstep-io-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn facts_file_roundtrip() {
        let dir = tmpdir("roundtrip");
        fs::write(dir.join("arc.facts"), "# graph\n0 1\n1,2\n\n2\t3\n").unwrap();
        let mut db = Database::new().unwrap();
        let n = load_facts_file(&mut db, "arc", 2, &dir.join("arc.facts")).unwrap();
        assert_eq!(n, 3);
        assert_eq!(db.row_count("arc"), 3);
        let written = write_relation_csv(&db, "arc", &dir.join("out/arc.csv")).unwrap();
        assert_eq!(written, 3);
        let text = fs::read_to_string(dir.join("out/arc.csv")).unwrap();
        assert_eq!(text, "0,1\n1,2\n2,3\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn arity_mismatch_in_facts_file_is_reported_with_position() {
        let dir = tmpdir("arity");
        fs::write(dir.join("arc.facts"), "0 1\n2 3 4\n").unwrap();
        let mut db = Database::new().unwrap();
        let err = load_facts_file(&mut db, "arc", 2, &dir.join("arc.facts")).unwrap_err();
        assert!(err.to_string().contains(":2:"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_datalog_file_workflow() {
        let dir = tmpdir("workflow");
        fs::write(
            dir.join("tc.datalog"),
            ".input arc\n.output tc\n\
             tc(x, y) :- arc(x, y).\n\
             tc(x, y) :- tc(x, z), arc(z, y).\n",
        )
        .unwrap();
        fs::write(dir.join("arc.facts"), "0 1\n1 2\n").unwrap();
        let engine = Engine::builder().threads(2).build().unwrap();
        let src = fs::read_to_string(dir.join("tc.datalog")).unwrap();
        let prepared = engine.prepare(&src).unwrap();
        let mut db = Database::new().unwrap();
        let (stats, written) =
            run_datalog_file(&prepared, &mut db, &dir, &dir.join("out")).unwrap();
        assert!(stats.iterations >= 2);
        assert_eq!(written, vec![("tc".to_string(), 3)]);
        let text = fs::read_to_string(dir.join("out/tc.csv")).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec!["0,1", "0,2", "1,2"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_input_file_errors() {
        let dir = tmpdir("missing");
        let engine = Engine::builder().threads(1).build().unwrap();
        let prepared = engine
            .prepare(".input arc\ntc(x, y) :- arc(x, y).\n")
            .unwrap();
        let mut db = Database::new().unwrap();
        let err = run_datalog_file(&prepared, &mut db, &dir, &dir.join("out")).unwrap_err();
        assert!(err.to_string().contains("cannot open"), "{err}");
        // Without `.input`, a body relation nothing provides must not
        // evaluate as silently empty either.
        let undeclared = engine.prepare("tc(x, y) :- arc(x, y).\n").unwrap();
        let mut db = Database::new().unwrap();
        let err = run_datalog_file(&undeclared, &mut db, &dir, &dir.join("out")).unwrap_err();
        assert!(err.to_string().contains("'arc'"), "{err}");
        // Loaded through the API instead, it is provided.
        db.load_edges("arc", &[(0, 1)]).unwrap();
        let (_, written) = run_datalog_file(&undeclared, &mut db, &dir, &dir.join("out")).unwrap();
        assert_eq!(written, vec![("tc".to_string(), 1)]);
        let _ = fs::remove_dir_all(&dir);
    }
}
