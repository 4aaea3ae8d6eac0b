//! `tidy` — the prodpred repo lint driver.
//!
//! ```text
//! tidy              list every finding (human format)
//! tidy --check      the same, under the name CI calls it by
//! tidy --json       machine-readable findings + per-lint counts
//! tidy --root PATH  lint a different workspace root
//! ```
//!
//! Any finding fails the run (exit 1): the tree is kept at zero, and a
//! deliberate exception is an inline `tidy:allow` with its justification.
//! Output is byte-identical across repeated runs on an unchanged tree:
//! the walk is sorted and the diagnostics are sorted.

use prodpred_analysis::lints::{lint_workspace, Finding, CODES};
use prodpred_analysis::walk::default_root;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: tidy [--check] [--json] [--root PATH]";

struct Options {
    json: bool,
    root: PathBuf,
}

/// `Ok(None)` is a request for the usage text.
fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        json: false,
        root: default_root(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // The gate is the default; the flag is what CI spells out.
            "--check" => {}
            "--json" => opts.json = true,
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a path argument")?);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Some(opts))
}

fn run() -> Result<ExitCode, String> {
    let Some(opts) = parse_args()? else {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    };
    let findings = lint_workspace(&opts.root)?;

    if opts.json {
        print_json(&findings);
    } else {
        for f in &findings {
            println!("{}", f.render());
        }
        println!("tidy: {} finding(s)", findings.len());
    }
    Ok(if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Renders `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_json(findings: &[Finding]) {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"code\": {}, \"message\": {}}}",
            json_string(&f.file),
            f.line,
            f.col,
            json_string(f.code),
            json_string(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"counts\": {");
    // Every stable code appears (zero included), in CODES order, so CI
    // consumers get a fixed-shape object to diff across runs.
    for (i, code) in CODES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let n = findings.iter().filter(|f| f.code == *code).count();
        out.push_str(&format!("\n    {}: {n}", json_string(code)));
    }
    out.push_str("\n  },\n");
    out.push_str(&format!("  \"total\": {},\n", findings.len()));
    out.push_str(&format!("  \"clean\": {}\n}}", findings.is_empty()));
    println!("{out}");
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("tidy: {msg}");
            ExitCode::from(2)
        }
    }
}
