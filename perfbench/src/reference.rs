//! Reference outputs from the `recstep_baselines` evaluators, which share
//! no evaluation code with the engine: the set-based semi-naive engine,
//! or the naive one for a program the set-based engine rejects.

use std::time::Instant;

use recstep::plan::CompiledProgram;
use recstep::Value;
use recstep_baselines::naive::NaiveEngine;
use recstep_baselines::setbased::SetEngine;

use crate::batch::{Input, Program};

/// Expected contents of every derived relation, rows sorted.
pub struct Expected {
    relations: Vec<(String, Vec<Vec<Value>>)>,
}

impl Expected {
    /// Whether `actual(name)` (sorted rows of a relation, `None` if the
    /// run produced no such relation) equals every expected relation.
    pub fn matches(&self, mut actual: impl FnMut(&str) -> Option<Vec<Vec<Value>>>) -> bool {
        self.relations.iter().all(|(name, want)| {
            let got = actual(name).unwrap_or_default();
            if &got != want {
                eprintln!(
                    "relation {name}: {} rows, reference has {}",
                    got.len(),
                    want.len()
                );
                return false;
            }
            true
        })
    }

    /// Expected rows of one relation.
    pub fn rows(&self, name: &str) -> Option<&[Vec<Value>]> {
        self.relations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, rows)| rows.as_slice())
    }
}

/// Names of the relations a program derives.
pub fn idb_names(compiled: &CompiledProgram) -> Vec<String> {
    compiled
        .relations
        .iter()
        .filter(|r| r.is_idb)
        .map(|r| r.name.clone())
        .collect()
}

fn rows(input: &Input) -> impl Iterator<Item = Vec<Value>> + '_ {
    input.data.chunks(input.arity).map(<[Value]>::to_vec)
}

/// Evaluate `src` over `inputs` with a baseline engine.
pub fn expected(src: &str, inputs: &[Input]) -> Result<Expected, String> {
    let idbs = idb_names(&recstep::compile_source(src).map_err(|e| e.to_string())?);
    let sorted = |mut v: Vec<Vec<Value>>| {
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut set = SetEngine::new(false);
    for input in inputs {
        set.load(input.name, rows(input));
    }
    let relations = match set.run_source(src) {
        Ok(_) => idbs
            .into_iter()
            .map(|name| {
                let r = sorted(set.rows(&name).unwrap_or_default().to_vec());
                (name, r)
            })
            .collect(),
        Err(_) => {
            drop(set);
            let mut naive = NaiveEngine::new();
            for input in inputs {
                naive.load(input.name, rows(input));
            }
            naive.run_source(src).map_err(|e| e.to_string())?;
            idbs.into_iter()
                .map(|name| {
                    let r = naive
                        .rows(&name)
                        .map(|t| t.iter().cloned().collect())
                        .unwrap_or_default();
                    (name, r)
                })
                .collect()
        }
    };
    Ok(Expected { relations })
}

/// Reference outputs of every program, evaluated on parallel threads,
/// each with the interval its evaluation took.
pub fn expected_all(progs: &[Program]) -> Vec<(Result<Expected, String>, Instant, Instant)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = progs
            .iter()
            .map(|p| {
                s.spawn(|| {
                    let start = Instant::now();
                    (expected(p.src, &p.inputs), start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let now = Instant::now();
                    (Err("reference evaluator panicked".into()), now, now)
                })
            })
            .collect()
    })
}
