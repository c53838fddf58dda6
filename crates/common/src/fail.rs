//! Failpoints: deterministic fault injection for crash-safety tests.
//!
//! A failpoint is a named site in production code (`fail_point!("wal::\
//! after_append")`) that normally does nothing — the fast path is a single
//! relaxed atomic load — but can be armed to inject a failure exactly
//! there: an I/O error, a panic, a process abort, or (for write paths that
//! opt in via [`eval`]) a torn short write. Tests arm points
//! programmatically with [`cfg()`]; operators and the CI crash harness arm
//! them from the environment:
//!
//! ```text
//! RECSTEP_FAILPOINTS="wal::after_append=return_io_err;snapshot::before_rename=abort"
//! ```
//!
//! Action grammar: `[N*]return_io_err | panic | abort | short_write | off`.
//! An `N*` prefix skips the first `N` hits, then fires on every hit after
//! — "crash at the 3rd commit" is `2*abort`. Failpoints are process-global;
//! tests that arm them, or pass through an armable point, must serialize
//! with each other. A [`FailGuard`] disarms its point when it drops, even
//! on panic; [`teardown`] disarms everything.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Once, OnceLock};

use parking_lot::RwLock;

use crate::{Error, Result};

/// What an armed failpoint does when hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Return an injected `Error::Io` from the enclosing function.
    ReturnIoErr,
    /// Panic (exercises `catch_unwind` isolation).
    Panic,
    /// Abort the process — a real crash, for out-of-process harnesses.
    Abort,
    /// Write only a prefix of the bytes, then fail (simulates a torn
    /// write). Only write paths that call [`eval`] honor this; at a plain
    /// `fail_point!` it degrades to [`FailAction::ReturnIoErr`].
    ShortWrite,
}

struct Point {
    action: FailAction,
    /// Hits to let through before firing.
    skip: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn registry() -> &'static RwLock<HashMap<String, Point>> {
    static REGISTRY: OnceLock<RwLock<HashMap<String, Point>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Fast-path check used by the `fail_point!` macro: false (one relaxed
/// load) unless at least one failpoint is armed. The first call parses
/// `RECSTEP_FAILPOINTS` from the environment.
#[inline]
pub fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("RECSTEP_FAILPOINTS") {
            if let Err(e) = cfg_all(&spec) {
                eprintln!("RECSTEP_FAILPOINTS: {e}");
            }
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Arm failpoints from a `name=action` list separated by `;` (or `,`).
pub fn cfg_all(spec: &str) -> std::result::Result<(), String> {
    for part in spec.split([';', ',']) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, action) = part
            .split_once('=')
            .ok_or_else(|| format!("failpoint spec '{part}' is not name=action"))?;
        cfg(name.trim(), action.trim())?;
    }
    Ok(())
}

/// Arm (or disarm, with `off`) one failpoint. See the module docs for the
/// action grammar.
pub fn cfg(name: &str, action: &str) -> std::result::Result<(), String> {
    let (skip, action_str) = match action.split_once('*') {
        Some((n, rest)) => (
            n.parse::<u64>()
                .map_err(|_| format!("bad skip count in '{action}'"))?,
            rest,
        ),
        None => (0, action),
    };
    let parsed = match action_str {
        "return_io_err" | "return" => Some(FailAction::ReturnIoErr),
        "panic" => Some(FailAction::Panic),
        "abort" => Some(FailAction::Abort),
        "short_write" => Some(FailAction::ShortWrite),
        "off" => None,
        other => return Err(format!("unknown failpoint action '{other}'")),
    };
    let mut map = registry().write();
    match parsed {
        Some(a) => {
            map.insert(
                name.to_string(),
                Point {
                    action: a,
                    skip: AtomicU64::new(skip),
                },
            );
        }
        None => {
            map.remove(name);
        }
    }
    ENABLED.store(!map.is_empty(), Ordering::Relaxed);
    Ok(())
}

/// Disarm one failpoint.
pub fn remove(name: &str) {
    let mut map = registry().write();
    map.remove(name);
    ENABLED.store(!map.is_empty(), Ordering::Relaxed);
}

/// A failpoint armed for the guard's lifetime: [`FailGuard::new`] arms it
/// and dropping the guard disarms it, also when a panic unwinds through
/// the scope that holds it.
#[must_use = "the failpoint is disarmed as soon as the guard drops"]
pub struct FailGuard {
    name: String,
}

impl FailGuard {
    /// Arm `name` with `action` (see the module docs for the grammar).
    pub fn new(name: &str, action: &str) -> std::result::Result<Self, String> {
        cfg(name, action)?;
        Ok(FailGuard {
            name: name.to_string(),
        })
    }
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        remove(&self.name);
    }
}

/// Disarm every failpoint (test teardown).
pub fn teardown() {
    let mut map = registry().write();
    map.clear();
    ENABLED.store(false, Ordering::Relaxed);
}

/// Evaluate a failpoint by name: `None` when disarmed or still within its
/// skip window, `Some(action)` when it fires. Write paths use this to
/// implement [`FailAction::ShortWrite`] themselves; everything else goes
/// through the `fail_point!` macro.
pub fn eval(name: &str) -> Option<FailAction> {
    if !enabled() {
        return None;
    }
    let map = registry().read();
    let point = map.get(name)?;
    // fetch_update: pass while the skip budget lasts, fire afterwards.
    let passed = point
        .skip
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1))
        .is_ok();
    if passed {
        None
    } else {
        Some(point.action)
    }
}

/// Macro body: act on a fired failpoint. `ShortWrite` at a generic site
/// degrades to an injected I/O error.
pub fn act(name: &str) -> Result<()> {
    match eval(name) {
        None => Ok(()),
        Some(FailAction::Panic) => panic!("failpoint {name}: injected panic"),
        Some(FailAction::Abort) => {
            eprintln!("failpoint {name}: aborting process");
            std::process::abort()
        }
        Some(FailAction::ReturnIoErr | FailAction::ShortWrite) => Err(Error::Io(
            std::io::Error::other(format!("failpoint {name}: injected i/o error")),
        )),
    }
}

/// Declare a failpoint. Expands to nothing observable when no failpoint
/// is armed (one relaxed atomic load); an armed point may return an
/// injected `Err` from the enclosing function (which must return
/// [`crate::Result`]), panic, or abort the process.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        if $crate::fail::enabled() {
            $crate::fail::act($name)?;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// Failpoints are process-global; unit tests here serialize on this.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guarded_site() -> Result<u32> {
        fail_point!("test::site");
        Ok(7)
    }

    #[test]
    fn disarmed_is_a_noop() {
        let _g = LOCK.lock();
        teardown();
        assert_eq!(guarded_site().unwrap(), 7);
        assert!(eval("test::site").is_none());
    }

    #[test]
    fn armed_point_injects_and_teardown_restores() {
        let _g = LOCK.lock();
        teardown();
        cfg("test::site", "return_io_err").unwrap();
        let err = guarded_site().unwrap_err();
        assert!(err.to_string().contains("failpoint test::site"), "{err}");
        remove("test::site");
        assert_eq!(guarded_site().unwrap(), 7);
        teardown();
    }

    #[test]
    fn skip_prefix_delays_firing() {
        let _g = LOCK.lock();
        teardown();
        cfg("test::site", "2*return_io_err").unwrap();
        assert!(guarded_site().is_ok());
        assert!(guarded_site().is_ok());
        assert!(guarded_site().is_err(), "fires on the 3rd hit");
        assert!(guarded_site().is_err(), "and keeps firing");
        teardown();
    }

    #[test]
    fn spec_parsing_accepts_lists_and_rejects_junk() {
        let _g = LOCK.lock();
        teardown();
        cfg_all("a=panic; b=1*short_write, c=off").unwrap();
        assert!(registry().read().contains_key("a"));
        assert!(registry().read().contains_key("b"));
        assert!(!registry().read().contains_key("c"));
        assert!(cfg("x", "explode").is_err());
        assert!(cfg("x", "y*panic").is_err());
        assert!(cfg_all("no-equals-sign").is_err());
        teardown();
    }

    #[test]
    fn guard_disarms_on_drop_and_on_panic() {
        let _g = LOCK.lock();
        teardown();
        {
            let _armed = FailGuard::new("test::site", "return_io_err").unwrap();
            assert!(guarded_site().is_err());
        }
        assert_eq!(guarded_site().unwrap(), 7, "dropped guard disarms");
        let unwound = std::panic::catch_unwind(|| {
            let _armed = FailGuard::new("test::site", "return_io_err").unwrap();
            assert!(guarded_site().is_err());
            panic!("test body fails while the point is armed");
        });
        assert!(unwound.is_err());
        assert_eq!(guarded_site().unwrap(), 7, "unwinding disarms too");
        assert!(!enabled());
        assert!(FailGuard::new("test::site", "explode").is_err());
        teardown();
    }

    #[test]
    fn off_disarms_via_cfg() {
        let _g = LOCK.lock();
        teardown();
        cfg("test::gone", "panic").unwrap();
        cfg("test::gone", "off").unwrap();
        assert!(eval("test::gone").is_none());
        teardown();
    }
}
