//! Instruments the benchmark wraps around the program: a timing
//! [`SolveDispatcher`], the process's peak resident set, and the host facts
//! recorded next to every result.

use rfp_floorplan::{SolveControl, SolveDispatcher, SolveOutcome, SolveRequest};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A [`SolveDispatcher`] that forwards to another one and records the wall
/// time of every call — the engine-dispatch layer boundary, timed from
/// outside the program.
pub struct TimedDispatcher {
    inner: Arc<dyn SolveDispatcher>,
    calls: Mutex<Vec<f64>>,
}

impl TimedDispatcher {
    pub fn new(inner: Arc<dyn SolveDispatcher>) -> Self {
        TimedDispatcher { inner, calls: Mutex::new(Vec::new()) }
    }

    /// Wall seconds of every dispatch so far, in call order.
    pub fn call_seconds(&self) -> Vec<f64> {
        self.calls.lock().expect("no dispatch panicked while recording").clone()
    }
}

impl SolveDispatcher for TimedDispatcher {
    fn dispatch(&self, engine: &str, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
        let start = Instant::now();
        let outcome = self.inner.dispatch(engine, req, ctl);
        let secs = start.elapsed().as_secs_f64();
        self.calls.lock().expect("no dispatch panicked while recording").push(secs);
        outcome
    }

    fn knows(&self, engine: &str) -> bool {
        self.inner.knows(engine)
    }
}

/// Peak resident set of this process in MiB: the kernel's `VmHWM` for the
/// process's own address space (0 where `/proc/self/status` is missing).
/// `getrusage` would not do: its `ru_maxrss` carries over the high-water
/// mark of the process that forked this one, such as `cargo run`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Logical CPUs the process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build profile of this binary.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Names the measured code: the commit checked out in the working
/// directory and an FNV-1a digest of the workspace sources (`crates/`,
/// `src/` and the root `Cargo.toml`). A checkout that is not a git
/// repository has no commit; the digest then stands in for it.
pub fn code_identity() -> (String, String) {
    let digest = source_digest();
    let commit = git_commit(Path::new(".")).unwrap_or_else(|| format!("source-fnv64:{digest}"));
    (commit, digest)
}

/// The commit `HEAD` names in the git repository at `root`: a detached
/// hash, or the hash of the branch it refers to, read from the loose ref or
/// from `packed-refs`. `None` without a `.git` directory or when the ref
/// cannot be resolved.
pub fn git_commit(root: &Path) -> Option<String> {
    let mut git = root.join(".git");
    if git.is_file() {
        // A linked checkout: `.git` is a file holding `gitdir: PATH`.
        let text = std::fs::read_to_string(&git).ok()?;
        git = root.join(text.trim().strip_prefix("gitdir:")?.trim());
    }
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let hash = match head.strip_prefix("ref:") {
        None => head.to_string(),
        Some(name) => {
            let name = name.trim();
            match std::fs::read_to_string(git.join(name)) {
                Ok(hash) => hash.trim().to_string(),
                Err(_) => std::fs::read_to_string(git.join("packed-refs")).ok()?.lines().find_map(
                    |line| line.strip_suffix(name)?.strip_suffix(' ').map(String::from),
                )?,
            }
        }
    };
    let valid = hash.len() >= 40 && hash.chars().all(|c| c.is_ascii_hexdigit());
    valid.then_some(hash)
}

fn source_digest() -> String {
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect_sources(Path::new(dir), &mut files);
    }
    files.push(PathBuf::from("Cargo.toml"));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            eat(file.to_string_lossy().as_bytes());
            eat(&bytes);
        }
    }
    format!("{hash:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_sources(&path, out),
            Ok(t) if t.is_file() => {
                if matches!(path.extension().and_then(|e| e.to_str()), Some("rs" | "toml")) {
                    out.push(path);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_floorplan::EngineRegistry;

    #[test]
    fn the_timed_dispatcher_records_every_call_and_forwards_the_outcome() {
        let timed = TimedDispatcher::new(Arc::new(EngineRegistry::builtin()));
        assert!(timed.knows("combinatorial"));
        assert!(!timed.knows("psychic"));
        let req = SolveRequest::new(rfp_workloads::hetero_golden_problem()).with_threads(1);
        let outcome = timed.dispatch("combinatorial", &req, &SolveControl::default());
        assert!(outcome.is_proven());
        let unknown = timed.dispatch("psychic", &req, &SolveControl::default());
        assert!(unknown.floorplan.is_none());
        let calls = timed.call_seconds();
        assert_eq!(calls.len(), 2);
        assert!(calls.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn the_commit_is_read_from_loose_and_packed_refs() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/git-commit-test");
        let git = root.join(".git");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        let (a, b) = ("a".repeat(40), "0123456789abcdef".repeat(3)[..40].to_string());
        assert_eq!(git_commit(&root), None);
        std::fs::write(git.join("HEAD"), format!("{a}\n")).unwrap();
        assert_eq!(git_commit(&root), Some(a.clone()));
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        assert_eq!(git_commit(&root), None);
        std::fs::write(git.join("packed-refs"), format!("# pack-refs\n{b} refs/heads/main\n"))
            .unwrap();
        assert_eq!(git_commit(&root), Some(b));
        std::fs::write(git.join("refs/heads/main"), format!("{a}\n")).unwrap();
        assert_eq!(git_commit(&root), Some(a));
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(git_commit(&root), None);
    }

    #[test]
    fn peak_rss_is_positive_and_plausible() {
        let mb = peak_rss_mb();
        assert!(mb > 1.0 && mb < 65536.0, "{mb}");
    }
}
