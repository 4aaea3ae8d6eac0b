//! The `prodpred-tidy` lint set: repo-specific, stable-coded checks that
//! enforce at the source level the invariants PRs 1–4 made load-bearing
//! at runtime (bit-identical resumes, pool-width-invariant digests,
//! poison-free locking, typed failures).
//!
//! | code  | meaning |
//! |-------|---------|
//! | PP000 | `tidy:allow` without a justification (or malformed); a PP011 allow whose reason cites a `.rs` path that is missing or never names the item |
//! | PP001 | nondeterminism source (`Instant::now`, `thread_rng`, …) in a simulation/prediction path |
//! | PP002 | iteration over a `HashMap`/`HashSet`, whose order can leak into results |
//! | PP003 | `unwrap`/`expect` in non-test library code |
//! | PP004 | float hygiene: `partial_cmp` ordering, `==`/`!=` against a float literal |
//! | PP005 | raw `.lock().unwrap()` bypassing the poison-recovering helpers |
//! | PP006 | `pub fn … -> Result` without an `# Errors` doc section |
//! | PP007 | trace-sized buffer copy in a `simgrid`/`core` hot path |
//! | PP008 | `std::net` socket usage outside the service crate's shell |
//! | PP009 | wall-clock reads (`SystemTime::now`, `Instant::now`) in the service crate outside its shell |
//! | PP010 | atomics (`Atomic*`, memory orderings) outside the audited concurrency modules |
//! | PP011 | `pub` item no other crate names (see `surface.rs`); `allow(dead_code)`/`allow(unused…)` in library code |
//!
//! Matching runs over *masked* source (see `scan.rs`): strings,
//! comments and doc examples can never trigger a lint. Findings are
//! suppressed by an inline `// tidy:allow(PPnnn): reason` on the same
//! line or on comment lines directly above; the reason text is
//! mandatory — an unjustified allow is itself a PP000 finding.

use crate::scan::{
    analyze_regions, find_word, has_word, is_ident_char, mask_source, MaskedLine, Regions,
};
use crate::surface::{pp011, Scanned};
use crate::walk::{read_only_files, workspace_files};
use std::path::Path;

/// One diagnostic produced by the lint engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (byte offset into the line).
    pub col: usize,
    /// Stable lint code (`PP000` … `PP011`).
    pub code: &'static str,
    /// Human-readable description, stable across runs.
    pub message: String,
}

impl Finding {
    /// Renders the canonical single-line human diagnostic.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.code, self.message
        )
    }
}

/// All stable lint codes, in order.
pub const CODES: [&str; 12] = [
    "PP000", "PP001", "PP002", "PP003", "PP004", "PP005", "PP006", "PP007", "PP008", "PP009",
    "PP010", "PP011",
];

/// Nondeterminism sources flagged by PP001.
const PP001_SOURCES: [&str; 6] = [
    "SystemTime::now(",
    "Instant::now(",
    "thread_rng(",
    "from_entropy(",
    "rand::random(",
    "Local::now(",
];

/// Hash-container iteration methods flagged by PP002.
const PP002_ITERS: [&str; 7] = [
    ".iter()",
    ".keys()",
    ".values()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

/// Panic-on-`Err`/`None` methods flagged by PP003.
const PP003_PANICS: [&str; 4] = [".unwrap()", ".expect(", ".unwrap_err()", ".expect_err("];

/// Identifier-chain suffixes whose `.clone()`/`.to_vec()` copies an
/// entire trace-sized buffer — flagged by PP007 in `simgrid`/`core` hot
/// paths. The match requires the whole final path segment (or a
/// `_`-separated suffix of it), so `payload.clone()` does not trip the
/// `load` entry.
const PP007_BUFFERS: [&str; 6] = ["trace", "load", "avail", "values", "prefix", "columns"];

/// Socket tokens flagged by PP008 outside the service shell.
const PP008_NET: [&str; 4] = ["std::net", "TcpListener", "TcpStream", "UdpSocket"];

/// Wall-clock reads flagged by PP009 inside the service crate.
const PP009_CLOCKS: [&str; 2] = ["SystemTime::now(", "Instant::now("];

/// Tokens flagged by PP010: the five `std::sync::atomic::Ordering`
/// variants (a bare `Ordering::` pattern would also catch the unrelated
/// `std::cmp::Ordering`), then the atomic cell types and the module path
/// itself.
const PP010_ATOMICS: [&str; 18] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
    "std::sync::atomic",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// Lint allows flagged by PP011's fence: each would silence the rustc
/// `dead_code`/`unused` lints that finish what PP011's narrowing starts.
const PP011_ALLOWS: [&str; 8] = [
    "allow(dead_code",
    "allow(unused)",
    "allow(unused_imports",
    "allow(unused_variables",
    "allow(unused_mut",
    "allow(unused_assignments",
    "allow(unused_must_use",
    "allow(unused_results",
];

/// Raw guard acquisitions flagged by PP005.
const PP005_LOCKS: [&str; 6] = [
    ".lock().unwrap()",
    ".lock().expect(",
    ".read().unwrap()",
    ".read().expect(",
    ".write().unwrap()",
    ".write().expect(",
];

/// What the file's path says about how strictly to lint it.
#[derive(Debug, Clone, Copy)]
struct PathScope {
    /// Integration tests, benches, examples: panicking and timing are fine.
    test_path: bool,
    /// Binary targets: CLI entry points may unwrap and measure wall time.
    bin: bool,
    /// The measurement crate: wall-clock timing is its whole point.
    bench_crate: bool,
    /// Simulation hot paths (`simgrid`/`core` lib sources): trace-sized
    /// buffer copies are budget violations there (PP007).
    hot_path: bool,
}

fn path_scope(relpath: &str) -> PathScope {
    let test_path = relpath.starts_with("tests/")
        || relpath.contains("/tests/")
        || relpath.contains("/benches/")
        || relpath.starts_with("examples/")
        || relpath.contains("/examples/");
    let bin = relpath.contains("/src/bin/") || relpath.ends_with("src/main.rs");
    PathScope {
        test_path,
        bin,
        bench_crate: relpath.starts_with("crates/bench/"),
        hot_path: !bin
            && (relpath.starts_with("crates/simgrid/src/")
                || relpath.starts_with("crates/core/src/")),
    }
}

/// A lint that fences a list of tokens out of part of the tree: every
/// word-boundary occurrence of a token where the fence applies is a
/// finding. A new fence is a new row of [`FENCES`].
struct TokenFence {
    code: &'static str,
    tokens: &'static [&'static str],
    /// Whether the fence covers a line of `relpath`, given what the path
    /// says about the file and whether the line is test code.
    applies: fn(relpath: &str, scope: PathScope, in_test: bool) -> bool,
    /// The diagnostic for one matched token.
    message: fn(token: &str) -> String,
}

/// The service crate's shell module (the designed socket veneer, whose
/// tick loop and socket timeouts are real time by design) and its binary
/// targets (the daemon and its smoke-mode HTTP client, which measures
/// real sockets): the paths PP008 and PP009 exempt.
fn service_shell(relpath: &str) -> bool {
    relpath == "crates/service/src/shell.rs" || relpath.starts_with("crates/service/src/bin/")
}

const FENCES: [TokenFence; 7] = [
    TokenFence {
        code: "PP001",
        tokens: &PP001_SOURCES,
        applies: |_, scope, in_test| !in_test && !scope.bin && !scope.bench_crate,
        message: |pat| {
            let name = pat.trim_end_matches('(');
            format!("nondeterminism source `{name}` in a simulation/prediction path; inject time or seed explicitly")
        },
    },
    TokenFence {
        code: "PP003",
        tokens: &PP003_PANICS,
        applies: |_, scope, in_test| !in_test && !scope.bin,
        message: |pat| {
            let name = pat.trim_start_matches('.').trim_end_matches('(');
            let name = name.trim_end_matches("()");
            format!("`{name}` in non-test library code; return a typed error, or document the invariant and add a tidy:allow")
        },
    },
    TokenFence {
        code: "PP005",
        tokens: &PP005_LOCKS,
        applies: |_, _, in_test| !in_test,
        message: |pat| {
            format!("raw `{pat}` bypasses the poison-recovering lock helpers; a peer's panic becomes a secondary panic here")
        },
    },
    // PP008: `std::net` socket usage outside the service crate's shell.
    // The service core is a pure function of `(sensor trace, clock)` and
    // the tier-1 tests drive it with zero real I/O — a guarantee that
    // only holds while socket code stays quarantined in the shell and
    // the service binaries. Runs in every scope, tests included: the
    // tier-1 suite is contractually socket-free.
    TokenFence {
        code: "PP008",
        tokens: &PP008_NET,
        applies: |relpath, _, _| !service_shell(relpath),
        message: |pat| {
            format!("`{pat}` outside the service shell; sockets live only in crates/service/src/shell.rs (the core must stay I/O-free)")
        },
    },
    // PP009: wall-clock reads in the service crate outside its shell.
    // Resilience decisions — serving-state derivation, retry backoff,
    // breaker cooldowns, admission budgets — are pure functions of
    // `(seed, simulated clock)`; that is what makes the chaos campaign
    // and the availability DP replayable bit-for-bit. PP001 already bans
    // nondeterminism in library code but waives tests and binaries; here
    // even a test that consults `Instant::now` for control flow can mask
    // a determinism regression, so the ban covers every scope.
    TokenFence {
        code: "PP009",
        tokens: &PP009_CLOCKS,
        applies: |relpath, _, _| {
            relpath.starts_with("crates/service/src/") && !service_shell(relpath)
        },
        message: |pat| {
            let name = pat.trim_end_matches('(');
            format!("`{name}` in the service crate outside shell.rs; resilience logic must run on the simulated clock")
        },
    },
    // PP010: atomics fenced into the audited concurrency modules. The
    // serving-path proof (`prodpred-analysis::svc`) enumerates every
    // interleaving of the atomics in `cache.rs`/`resilience.rs`;
    // the pool's primitives predate it and are covered by their own
    // stress suite. An `Atomic*` cell or memory ordering anywhere else
    // has no model backing its orderings — move the state behind one of
    // the audited modules' abstractions, or justify the escape with
    // `tidy:allow(PP010): reason`. Covers every scope (tests and binaries
    // included): an unaudited atomic in a test harness can hide the same
    // ordering bugs.
    TokenFence {
        code: "PP010",
        tokens: &PP010_ATOMICS,
        applies: |relpath, _, _| {
            !(relpath == "crates/service/src/cache.rs"
                || relpath == "crates/service/src/resilience.rs"
                || relpath.starts_with("crates/pool/"))
        },
        message: |pat| {
            format!("`{pat}` outside the audited atomics modules (service cache/resilience, crates/pool); route the state through them or justify with tidy:allow(PP010)")
        },
    },
    // PP011's fence: once PP011 narrows an item no other crate names,
    // rustc's `dead_code` lint (denied by CI's clippy job) reports it if
    // nothing in its crate calls it either. An allow in library code
    // would silently defeat that half.
    TokenFence {
        code: "PP011",
        tokens: &PP011_ALLOWS,
        applies: |_, scope, in_test| !in_test && !scope.bin,
        message: |pat| {
            format!("`{pat}` in library code silences the dead-code lint PP011 relies on; delete what it hides")
        },
    },
];

/// Lints the workspace under `root`: every per-file lint over the files
/// `workspace_files` lists, then PP011 across them and the read-only
/// trees (with its stale-allow check), with `tidy:allow` suppressions
/// applied. Returns the findings in
/// (file, line, col, code) order. The `tidy` bin and the tier-1
/// workspace test both call this, so they cannot drift apart.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading the tree.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let linted = workspace_files(root)?;
    let mut files = Vec::new();
    for rel in linted.iter().chain(&read_only_files(root)?) {
        let path = root.join(rel);
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let lines = mask_source(&src);
        let regions = analyze_regions(&lines);
        files.push(Scanned {
            rel: rel.clone(),
            lines,
            regions,
        });
    }
    let mut per_file: Vec<Vec<Finding>> = files[..linted.len()]
        .iter()
        .map(|f| file_findings(&f.rel, &f.lines, &f.regions))
        .collect();
    for (fi, name, finding) in pp011(&files) {
        per_file[fi].extend(stale_allows(&files, fi, finding.line, &name));
        per_file[fi].push(finding);
    }
    let mut findings: Vec<Finding> = files
        .iter()
        .zip(per_file)
        .flat_map(|(f, found)| suppressed(&f.rel, &f.lines, found))
        .collect();
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.code).cmp(&(&b.file, b.line, b.col, b.code)));
    Ok(findings)
}

/// Lints one source file with every per-file lint (all but PP011's
/// cross-crate pass), applying scoping rules and `tidy:allow`
/// suppressions. Returns the surviving findings in (line, col, code)
/// order.
// tidy:allow(PP011): lint_workspace's per-file pass, which crates/analysis/tests/fixtures.rs drives alone
pub fn lint_source(relpath: &str, src: &str) -> Vec<Finding> {
    let lines = mask_source(src);
    let regions = analyze_regions(&lines);
    let findings = file_findings(relpath, &lines, &regions);
    suppressed(relpath, &lines, findings)
}

/// Applies `tidy:allow` suppressions and sorts by (line, col, code).
fn suppressed(relpath: &str, lines: &[MaskedLine], mut findings: Vec<Finding>) -> Vec<Finding> {
    apply_suppressions(relpath, lines, &mut findings);
    findings.sort_by(|a, b| (a.line, a.col, a.code).cmp(&(b.line, b.col, b.code)));
    findings
}

/// Every per-file finding of one masked file, before suppressions.
fn file_findings(relpath: &str, lines: &[MaskedLine], regions: &Regions) -> Vec<Finding> {
    let scope = path_scope(relpath);
    let mut findings = Vec::new();

    let hash_names = collect_hash_container_names(lines);

    for (idx, line) in lines.iter().enumerate() {
        let in_test = scope.test_path || regions.in_test[idx];
        let code_line = line.code.as_str();
        for fence in &FENCES {
            if !(fence.applies)(relpath, scope, in_test) {
                continue;
            }
            for pat in fence.tokens {
                let mut from = 0;
                while let Some(at) = find_word(code_line, pat, from) {
                    push(
                        &mut findings,
                        relpath,
                        idx,
                        at,
                        fence.code,
                        (fence.message)(pat),
                    );
                    from = at + pat.len();
                }
            }
        }
        if !in_test {
            pp002(relpath, idx, code_line, &hash_names, &mut findings);
            pp004(relpath, idx, code_line, &mut findings);
        }
        if !in_test && scope.hot_path {
            pp007(relpath, idx, code_line, &mut findings);
        }
    }
    if !scope.test_path && !scope.bin {
        pp006(relpath, lines, regions, &mut findings);
    }
    findings
}

fn push(
    findings: &mut Vec<Finding>,
    file: &str,
    idx: usize,
    col0: usize,
    code: &'static str,
    message: String,
) {
    findings.push(Finding {
        file: file.to_string(),
        line: idx + 1,
        col: col0 + 1,
        code,
        message,
    });
}

/// First pass of PP002: names bound or declared with a `HashMap`/`HashSet`
/// type anywhere in the file (let bindings and struct fields).
fn collect_hash_container_names(lines: &[MaskedLine]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in lines {
        let code = line.code.as_str();
        if !code.contains("HashMap") && !code.contains("HashSet") {
            continue;
        }
        // `let [mut] name … = HashMap::new()` / `let name: HashMap<…>`.
        if let Some(let_at) = find_word(code, "let", 0) {
            let after = &code[let_at + 3..];
            let after = after.trim_start();
            let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
            let name: String = after.chars().take_while(|&c| is_ident_char(c)).collect();
            let rest = &after[name.len()..];
            if !name.is_empty() && (rest.contains("HashMap") || rest.contains("HashSet")) {
                names.push(name);
            }
        }
        // `field: HashMap<…>` / `field: HashSet<…>` (struct fields, fn params).
        for marker in [": HashMap", ": HashSet"] {
            let mut from = 0;
            while let Some(at) = code[from..].find(marker).map(|p| p + from) {
                let head = &code[..at];
                let name: String = head
                    .chars()
                    .rev()
                    .take_while(|&c| is_ident_char(c))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if !name.is_empty() {
                    names.push(name);
                }
                from = at + marker.len();
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

fn pp002(
    file: &str,
    idx: usize,
    code_line: &str,
    hash_names: &[String],
    findings: &mut Vec<Finding>,
) {
    for name in hash_names {
        for suffix in PP002_ITERS {
            let pat = format!("{name}{suffix}");
            let mut from = 0;
            while let Some(at) = find_word(code_line, &pat, from) {
                push(
                    findings,
                    file,
                    idx,
                    at,
                    "PP002",
                    format!("iteration over hash-ordered container `{name}` can leak nondeterministic order into results; use BTreeMap/BTreeSet or sort first"),
                );
                from = at + pat.len();
            }
        }
        for prefix in ["in &", "in &mut "] {
            let pat = format!("{prefix}{name}");
            let mut from = 0;
            while let Some(at) = find_word(code_line, &pat, from) {
                // `for x in &map` — iteration by reference.
                push(
                    findings,
                    file,
                    idx,
                    at,
                    "PP002",
                    format!("iteration over hash-ordered container `{name}` can leak nondeterministic order into results; use BTreeMap/BTreeSet or sort first"),
                );
                from = at + pat.len();
            }
        }
    }
}

fn pp004(file: &str, idx: usize, code_line: &str, findings: &mut Vec<Finding>) {
    let mut from = 0;
    while let Some(at) = find_word(code_line, ".partial_cmp(", from) {
        push(
            findings,
            file,
            idx,
            at,
            "PP004",
            "float ordering via `partial_cmp`; use `total_cmp` so NaN cannot panic or reorder"
                .to_string(),
        );
        from = at + ".partial_cmp(".len();
    }
    for (op_at, _op) in comparison_ops(code_line) {
        let left = token_before(code_line, op_at);
        let right = token_after(code_line, op_at + 2);
        if is_float_literal(&left) || is_float_literal(&right) {
            push(
                findings,
                file,
                idx,
                op_at,
                "PP004",
                "exact `==`/`!=` comparison against a float literal; use an epsilon or a documented bit-exact check".to_string(),
            );
        }
    }
}

/// Byte offsets of standalone `==` / `!=` operators.
fn comparison_ops(line: &str) -> Vec<(usize, &'static str)> {
    let bytes = line.as_bytes();
    let mut ops = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let pair = &bytes[i..i + 2];
        if pair == b"==" {
            let prev = i.checked_sub(1).map(|j| bytes[j]);
            let next = bytes.get(i + 2).copied();
            // Exclude `<=`, `>=`, `!=`'s tail, `===` (not Rust, but safe).
            if !matches!(prev, Some(b'=') | Some(b'!') | Some(b'<') | Some(b'>'))
                && next != Some(b'=')
            {
                ops.push((i, "=="));
            }
            i += 2;
        } else if pair == b"!=" {
            ops.push((i, "!="));
            i += 2;
        } else {
            i += 1;
        }
    }
    ops
}

fn token_before(line: &str, end: usize) -> String {
    let bytes = line.as_bytes();
    let mut i = end;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    let stop = i;
    while i > 0 {
        let c = bytes[i - 1] as char;
        if is_ident_char(c) || c == '.' {
            i -= 1;
        } else {
            break;
        }
    }
    line[i..stop].to_string()
}

fn token_after(line: &str, start: usize) -> String {
    let bytes = line.as_bytes();
    let mut i = start;
    while i < bytes.len() && bytes[i] == b' ' {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'-' {
        i += 1; // negative literal
    }
    let begin = i;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if is_ident_char(c) || c == '.' {
            i += 1;
        } else if (c == '+' || c == '-') && i > begin && matches!(bytes[i - 1], b'e' | b'E') {
            i += 1; // exponent sign
        } else {
            break;
        }
    }
    line[begin..i].to_string()
}

/// True for Rust float literals: `1.0`, `0.5f64`, `1e-9`, `2f32`, `1_000.0`.
fn is_float_literal(tok: &str) -> bool {
    let body = tok
        .strip_suffix("f64")
        .or_else(|| tok.strip_suffix("f32"))
        .unwrap_or(tok);
    let has_suffix = body.len() != tok.len();
    let body = body.replace('_', "");
    let mut chars = body.chars();
    match chars.next() {
        Some(c) if c.is_ascii_digit() => {}
        _ => return false,
    }
    let valid = body
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'));
    if !valid {
        return false;
    }
    has_suffix || body.contains('.') || body.contains('e') || body.contains('E')
}

/// PP007: trace-sized buffer copies in `simgrid`/`core` hot paths.
///
/// Flags `.values().to_vec()` literally, plus `.clone()`/`.to_vec()`
/// whose receiver chain ends in a trace-sized buffer name
/// ([`PP007_BUFFERS`]). The grid-scale memory budget (O(1) amortized
/// bytes/machine) dies by a thousand such copies; route queries through
/// `TraceRef`/`TraceStore` views instead, or justify an intentional copy
/// with `tidy:allow(PP007): reason`.
fn pp007(file: &str, idx: usize, code_line: &str, findings: &mut Vec<Finding>) {
    let mut from = 0;
    while let Some(at) = find_word(code_line, ".values().to_vec()", from) {
        push(
            findings,
            file,
            idx,
            at,
            "PP007",
            "`.values().to_vec()` copies a full value buffer in a hot path; iterate the slice or use a TraceRef view".to_string(),
        );
        from = at + ".values().to_vec()".len();
    }
    for pat in [".clone()", ".to_vec()"] {
        let mut from = 0;
        while let Some(at) = find_word(code_line, pat, from) {
            from = at + pat.len();
            let chain = token_before(code_line, at);
            let last = chain.rsplit('.').next().unwrap_or("");
            let copies_buffer = PP007_BUFFERS
                .iter()
                .any(|b| last == *b || last.ends_with(&format!("_{b}")));
            if copies_buffer {
                push(
                    findings,
                    file,
                    idx,
                    at,
                    "PP007",
                    format!("`{last}{pat}` copies a trace-sized buffer in a hot path; borrow it or route through TraceStore views"),
                );
            }
        }
    }
}

/// PP006: public functions returning `Result` must carry an `# Errors`
/// doc section. Trait-impl methods are exempt (their contract lives on
/// the trait).
fn pp006(file: &str, lines: &[MaskedLine], regions: &Regions, findings: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if regions.in_test[idx] || regions.in_trait_impl[idx] {
            continue;
        }
        let Some(col) = public_fn_at(&line.code) else {
            continue;
        };
        let signature = capture_signature(lines, idx);
        let Some(ret) = signature.rsplit("->").next() else {
            continue;
        };
        // Word match, not substring: `DistSorResult` is a plain struct.
        if signature.contains("->") && has_word(ret, "Result") && !docs_mention_errors(lines, idx) {
            push(
                findings,
                file,
                idx,
                col,
                "PP006",
                "`pub fn` returning `Result` without an `# Errors` doc section".to_string(),
            );
        }
    }
}

/// Column of a plain `pub fn` (not `pub(crate)`) definition on this line.
fn public_fn_at(code_line: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(at) = find_word(code_line, "pub", from) {
        let rest = code_line[at + 3..].trim_start();
        from = at + 3;
        if rest.starts_with('(') {
            continue; // pub(crate), pub(super), …: not public API
        }
        // Skip qualifier keywords between `pub` and `fn`.
        let mut r = rest;
        loop {
            r = r.trim_start();
            if r.starts_with("fn ") || r == "fn" {
                return Some(at);
            }
            let mut advanced = false;
            for kw in ["const ", "async ", "unsafe ", "extern "] {
                if let Some(stripped) = r.strip_prefix(kw) {
                    r = stripped;
                    advanced = true;
                    break;
                }
            }
            if let Some(stripped) = r.strip_prefix("\"\"") {
                // masked ABI string of `extern "C"`
                r = stripped;
                advanced = true;
            }
            if !advanced {
                break;
            }
        }
    }
    None
}

/// The masked signature text from the `pub fn` line to the body brace.
fn capture_signature(lines: &[MaskedLine], start: usize) -> String {
    let mut sig = String::new();
    for line in lines.iter().skip(start).take(24) {
        let code = line.code.as_str();
        let end = code.find(['{', ';']);
        match end {
            Some(e) => {
                sig.push_str(&code[..e]);
                return sig;
            }
            None => {
                sig.push_str(code);
                sig.push(' ');
            }
        }
    }
    sig
}

/// True when the contiguous doc block above `idx` mentions `# Errors`.
fn docs_mention_errors(lines: &[MaskedLine], idx: usize) -> bool {
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let line = &lines[j];
        let code_trim = line.code.trim();
        if line.is_doc {
            if line.comment.contains("# Errors") {
                return true;
            }
            continue;
        }
        let plain_comment = code_trim.is_empty() && !line.comment.trim().is_empty();
        if code_trim.starts_with("#[") || code_trim.starts_with("#!") || plain_comment {
            continue; // attribute or plain comment (a suppression) between docs and fn
        }
        return false;
    }
    false
}

/// One parsed `tidy:allow` marker.
#[derive(Debug, Clone)]
struct Allow {
    code: String,
    /// The text after the colon; empty when there is none.
    reason: String,
    line: usize,
    col: usize,
}

impl Allow {
    fn justified(&self) -> bool {
        !self.reason.is_empty()
    }
}

/// True for a concrete lint code: `PP` followed by three ASCII digits.
fn is_lint_code(code: &str) -> bool {
    code.len() == 5 && code.starts_with("PP") && code[2..].bytes().all(|b| b.is_ascii_digit())
}

/// Extracts every `tidy:allow(PPnnn)[: reason]` from a comment.
fn parse_allows(comment: &str, line: usize) -> Vec<Allow> {
    let mut allows = Vec::new();
    let mut from = 0;
    while let Some(pos) = comment[from..].find("tidy:allow").map(|p| p + from) {
        let rest = &comment[pos + "tidy:allow".len()..];
        let (code, reason) = match rest.strip_prefix('(') {
            Some(inner) => match inner.find(')') {
                Some(close) => {
                    let code = inner[..close].trim().to_string();
                    // Prose about the grammar (e.g. `tidy:allow(PPnnn)`)
                    // is not an allow attempt; only concrete codes are.
                    if !is_lint_code(&code) {
                        from = pos + "tidy:allow".len();
                        continue;
                    }
                    let tail = inner[close + 1..].trim_start();
                    let reason = tail.strip_prefix(':').map(str::trim).unwrap_or("");
                    (code, reason.to_string())
                }
                None => (String::new(), String::new()),
            },
            None => (String::new(), String::new()),
        };
        allows.push(Allow {
            code,
            reason,
            line,
            col: pos + 1,
        });
        from = pos + "tidy:allow".len();
    }
    allows
}

/// The allows on one line. Doc comments talk *about* the tool (grammar
/// tables, usage docs); suppressions must be written in regular comments.
fn line_allows(lines: &[MaskedLine], idx: usize) -> Vec<Allow> {
    if lines[idx].is_doc {
        Vec::new()
    } else {
        parse_allows(&lines[idx].comment, idx + 1)
    }
}

/// The allows attached to 1-based line `lineno`: its own trailing comment
/// plus any comment-only lines directly above.
fn attached_allows(lines: &[MaskedLine], lineno: usize) -> Vec<Allow> {
    let idx = lineno - 1;
    let mut out = line_allows(lines, idx);
    for j in (0..idx).rev() {
        let l = &lines[j];
        if !l.code.trim().is_empty() || l.comment.trim().is_empty() {
            break;
        }
        out.extend(line_allows(lines, j));
    }
    out
}

/// PP000 for each justified PP011 allow on `name`'s declaration (1-based
/// `line` of `files[fi]`) whose reason cites a `.rs` path that is no
/// scanned file, or one whose masked code never names `name`: such an
/// allow holds the item `pub` for a test that does not need it.
fn stale_allows(files: &[Scanned], fi: usize, line: usize, name: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for allow in attached_allows(&files[fi].lines, line) {
        if allow.code != "PP011" || !allow.justified() {
            continue;
        }
        for path in cited_paths(&allow.reason) {
            let problem = match files.iter().find(|f| f.rel == path) {
                None => "which does not exist".to_string(),
                Some(f) if !f.lines.iter().any(|l| has_word(&l.code, name)) => {
                    format!("whose code never names `{name}`")
                }
                Some(_) => continue,
            };
            findings.push(Finding {
                file: files[fi].rel.clone(),
                line: allow.line,
                col: allow.col,
                code: "PP000",
                message: format!(
                    "stale PP011 allow: its reason cites `{path}`, {problem}; cite the test that names the item, or narrow it"
                ),
            });
        }
    }
    findings
}

/// The `.rs` paths a reason cites, as written.
fn cited_paths(reason: &str) -> impl Iterator<Item = &str> {
    reason
        .split_whitespace()
        .map(|w| {
            w.trim_matches(|c: char| !(is_ident_char(c) || c == '/' || c == '.'))
                .trim_end_matches('.')
        })
        .filter(|w| w.ends_with(".rs"))
}

/// Applies `tidy:allow` suppressions in place and appends PP000 findings
/// for unjustified or malformed allows.
fn apply_suppressions(file: &str, lines: &[MaskedLine], findings: &mut Vec<Finding>) {
    findings.retain(|f| {
        !attached_allows(lines, f.line)
            .iter()
            .any(|a| a.justified() && a.code == f.code)
    });

    for idx in 0..lines.len() {
        for a in line_allows(lines, idx) {
            if !a.justified() {
                findings.push(Finding {
                    file: file.to_string(),
                    line: a.line,
                    col: a.col,
                    code: "PP000",
                    message: "unjustified tidy:allow; write `tidy:allow(PPnnn): reason` with a non-empty reason".to_string(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn pp001_fires_in_lib_but_not_in_tests_or_strings() {
        let f = lint_source("crates/x/src/a.rs", "fn f() { let t = Instant::now(); }\n");
        assert_eq!(codes(&f), ["PP001"]);
        let f = lint_source(
            "crates/x/tests/a.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        assert!(f.is_empty());
        let f = lint_source(
            "crates/x/src/a.rs",
            "fn f() { let s = \"Instant::now()\"; }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn pp003_flags_unwrap_and_expect_not_unwrap_or() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap_or(3); v.expect(\"x\") }\n";
        let f = lint_source("crates/x/src/a.rs", src);
        assert_eq!(codes(&f), ["PP003"]);
    }

    #[test]
    fn pp004_float_literal_comparisons() {
        let f = lint_source("crates/x/src/a.rs", "fn f(x: f64) -> bool { x == 0.0 }\n");
        assert_eq!(codes(&f), ["PP004"]);
        let f = lint_source("crates/x/src/a.rs", "fn f(x: usize) -> bool { x == 2 }\n");
        assert!(f.is_empty());
        let f = lint_source("crates/x/src/a.rs", "fn f(x: f64) -> bool { x <= 1.0 }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn suppression_requires_reason() {
        let ok = "fn f(v: Option<u32>) -> u32 {\n    // tidy:allow(PP003): invariant: v is Some by construction\n    v.unwrap()\n}\n";
        let f = lint_source("crates/x/src/a.rs", ok);
        assert!(f.is_empty(), "{f:?}");
        let bad = "fn f(v: Option<u32>) -> u32 {\n    // tidy:allow(PP003)\n    v.unwrap()\n}\n";
        let f = lint_source("crates/x/src/a.rs", bad);
        assert_eq!(codes(&f), ["PP000", "PP003"]);
    }

    #[test]
    fn pp006_wants_errors_section() {
        let undocumented = "/// Does a thing.\npub fn f() -> Result<(), E> { Ok(()) }\n";
        let f = lint_source("crates/x/src/a.rs", undocumented);
        assert_eq!(codes(&f), ["PP006"]);
        let documented =
            "/// Does a thing.\n///\n/// # Errors\n/// When it cannot.\npub fn f() -> Result<(), E> { Ok(()) }\n";
        let f = lint_source("crates/x/src/a.rs", documented);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn pp007_flags_trace_buffer_copies_in_hot_crates_only() {
        // Fires on buffer-suffixed receivers in simgrid/core lib sources.
        let src = "fn f(m: &Machine) { let x = m.load.clone(); use_it(x); }\n";
        let f = lint_source("crates/simgrid/src/a.rs", src);
        assert_eq!(codes(&f), ["PP007"]);
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(codes(&f), ["PP007"]);
        // The literal full-copy idiom and `.to_vec()` forms fire too.
        let f = lint_source(
            "crates/simgrid/src/a.rs",
            "fn f(t: &Trace) { sink(t.values().to_vec()); }\n",
        );
        assert_eq!(codes(&f), ["PP007"]);
        let f = lint_source(
            "crates/core/src/a.rs",
            "fn f(p: &[f64]) { sink(self.prefix.to_vec()); }\n",
        );
        assert_eq!(codes(&f), ["PP007"]);
        // Whole-segment matching: `payload` must not trip the `load` entry.
        let f = lint_source(
            "crates/simgrid/src/a.rs",
            "fn f(e: &Ev) { let p = e.payload.clone(); use_it(p); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
        // Out of the hot crates — or in tests — the copy is fine.
        let f = lint_source("crates/sor/src/a.rs", src);
        assert!(f.is_empty(), "{f:?}");
        let f = lint_source("crates/simgrid/tests/a.rs", src);
        assert!(f.is_empty(), "{f:?}");
        // An intentional copy carries a justified allow.
        let allowed = "fn f(m: &Machine) {\n    // tidy:allow(PP007): oracle tests need a standalone trace\n    let x = m.load.clone();\n    use_it(x);\n}\n";
        let f = lint_source("crates/simgrid/src/a.rs", allowed);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn pp008_fences_sockets_into_the_service_shell() {
        let src =
            "use std::net::TcpListener;\nfn f() { let l = TcpListener::bind(\"x\"); use_it(l); }\n";
        // Any ordinary lib source: two findings on line 1 (`std::net` and
        // the type), one on line 2.
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(codes(&f), ["PP008", "PP008", "PP008"]);
        // Tests are NOT exempt: tier-1 is contractually socket-free.
        let f = lint_source("tests/service_core.rs", src);
        assert_eq!(codes(&f), ["PP008", "PP008", "PP008"]);
        // Other crates' bins are not exempt either.
        let f = lint_source("crates/bench/src/bin/replay.rs", src);
        assert_eq!(codes(&f), ["PP008", "PP008", "PP008"]);
        // The designed socket veneer and the service binaries are exempt.
        assert!(lint_source("crates/service/src/shell.rs", src).is_empty());
        assert!(lint_source("crates/service/src/bin/serviced.rs", src).is_empty());
        // Elsewhere in the service crate the fence still holds.
        let f = lint_source("crates/service/src/core.rs", src);
        assert_eq!(codes(&f), ["PP008", "PP008", "PP008"]);
        // Masked occurrences (strings, comments) never fire.
        let f = lint_source(
            "crates/core/src/a.rs",
            "fn f() { let s = \"std::net::TcpStream\"; use_it(s); } // std::net\n",
        );
        assert!(f.is_empty(), "{f:?}");
        // `UdpSocket` and bare `TcpStream` are fenced too.
        let f = lint_source(
            "crates/nws/src/a.rs",
            "fn f() { let s = TcpStream::connect(\"x\"); let u = UdpSocket::bind(\"y\"); use_both(s, u); }\n",
        );
        assert_eq!(codes(&f), ["PP008", "PP008"]);
    }

    #[test]
    fn pp009_fences_wall_clocks_out_of_the_service_crate() {
        let src = "fn f() { let t = Instant::now(); use_it(t); }\n";
        // Library code in the service crate: one finding.
        let f = lint_source("crates/service/src/core.rs", src);
        assert_eq!(codes(&f), ["PP001", "PP009"]);
        // `SystemTime::now` is fenced the same way.
        let f = lint_source(
            "crates/service/src/resilience.rs",
            "fn f() { let t = SystemTime::now(); use_it(t); }\n",
        );
        assert_eq!(codes(&f), ["PP001", "PP009"]);
        // Unlike PP001, in-file test modules are NOT exempt: a test that
        // branches on real time can mask a determinism regression.
        let tested = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let x = Instant::now(); use_it(x); }\n}\n";
        let f = lint_source("crates/service/src/http.rs", tested);
        assert_eq!(codes(&f), ["PP009"]);
        // The shell (real tick loop) and binaries (smoke harness) are
        // PP009-exempt — the shell still answers to PP001 and justifies
        // its timers with allows.
        assert_eq!(
            codes(&lint_source("crates/service/src/shell.rs", src)),
            ["PP001"]
        );
        assert!(lint_source("crates/service/src/bin/serviced.rs", src).is_empty());
        // Other crates are out of PP009's reach (PP001 already covers
        // their library paths).
        let f = lint_source("crates/bench/src/bin/service_chaos.rs", src);
        assert!(f.is_empty(), "{f:?}");
        // Masked occurrences never fire.
        let f = lint_source(
            "crates/service/src/core.rs",
            "fn f() { let s = \"Instant::now()\"; use_it(s); } // Instant::now()\n",
        );
        assert!(f.is_empty(), "{f:?}");
        // A justified allow suppresses the finding.
        let allowed = "fn f() {\n    // tidy:allow(PP001): latency probe, result not load-bearing\n    // tidy:allow(PP009): latency probe, result not load-bearing\n    let t = Instant::now();\n    use_it(t);\n}\n";
        let f = lint_source("crates/service/src/core.rs", allowed);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn pp010_fences_atomics_into_audited_modules() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
        // Ordinary lib code: the module path and the type on line 1, the
        // type and the ordering on line 2.
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(codes(&f), ["PP010", "PP010", "PP010", "PP010"]);
        // Tests and binaries are NOT exempt: unaudited atomics hide the
        // same ordering bugs there.
        let f = lint_source("crates/sor/tests/a.rs", src);
        assert_eq!(codes(&f), ["PP010", "PP010", "PP010", "PP010"]);
        let f = lint_source("crates/bench/src/bin/replay.rs", src);
        assert_eq!(codes(&f), ["PP010", "PP010", "PP010", "PP010"]);
        // The audited modules and the pool's primitives are exempt;
        // `swap.rs` keeps no atomic and is fenced like any other module.
        let f = lint_source("crates/service/src/swap.rs", src);
        assert_eq!(codes(&f), ["PP010", "PP010", "PP010", "PP010"]);
        assert!(lint_source("crates/service/src/cache.rs", src).is_empty());
        assert!(lint_source("crates/service/src/resilience.rs", src).is_empty());
        assert!(lint_source("crates/pool/src/lib.rs", src).is_empty());
        assert!(lint_source("crates/pool/tests/stress.rs", src).is_empty());
        // Elsewhere in the service crate the fence holds.
        let f = lint_source("crates/service/src/core.rs", src);
        assert_eq!(codes(&f), ["PP010", "PP010", "PP010", "PP010"]);
        // `std::cmp::Ordering` is a different type entirely and must not
        // trip the ordering patterns.
        let cmp = "fn f(a: &u32, b: &u32) -> bool { a.cmp(b) == std::cmp::Ordering::Equal }\n";
        let f = lint_source("crates/simgrid/src/event.rs", cmp);
        assert!(f.is_empty(), "{f:?}");
        // Masked occurrences (strings, comments) never fire.
        let f = lint_source(
            "crates/core/src/a.rs",
            "fn f() { let s = \"AtomicU64, Ordering::SeqCst\"; use_it(s); } // std::sync::atomic\n",
        );
        assert!(f.is_empty(), "{f:?}");
        // A justified allow keeps an intentional escape visible.
        let allowed = "// tidy:allow(PP010): shutdown latch, no data published through it\nfn f(stop: &AtomicBool) -> bool {\n    // tidy:allow(PP010): shutdown latch, no data published through it\n    stop.load(Ordering::Acquire)\n}\n";
        let f = lint_source("crates/service/src/shell.rs", allowed);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn pp002_flags_hash_iteration_by_name() {
        let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2); for (k, v) in &m { use_it(k, v); } }\n";
        let f = lint_source("crates/x/src/a.rs", src);
        assert_eq!(codes(&f), ["PP002"]);
        let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2); let _ = m.get(&1); }\n";
        let f = lint_source("crates/x/src/a.rs", src);
        assert!(f.is_empty());
    }
}
