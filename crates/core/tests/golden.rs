//! Golden listings: `render_program` of the five shipped sources must
//! reproduce `tests/golden/*.spmd` byte for byte, at one thread and at
//! four. The files were generated from the commit that still carried the
//! interleaved serial builder beside the plan → build → assemble path, so
//! they pin what that twin used to cross-check: the single path emits the
//! program the serial pass emitted.
//!
//! There is no bless switch. On a mismatch the test writes the actual
//! listing under `target/` and prints both paths; a deliberate change is
//! recorded by copying that file over the golden one.

use dhpf_core::{compile, render_program, CompileOptions};
use std::path::Path;

const SP: &str = include_str!("../../../benchmarks/sp.hpf");

fn check(name: &str, src: &str, golden: &str) {
    for threads in [1, 4] {
        let compiled = compile(src, &CompileOptions::new().threads(threads))
            .unwrap_or_else(|e| panic!("{name}: compile failed at threads = {threads}: {e}"));
        let actual = render_program(&compiled.program);
        if actual == golden {
            continue;
        }
        let expected_path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.spmd"));
        let actual_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.spmd"));
        std::fs::write(&actual_path, &actual).expect("write the actual listing under target/");
        panic!(
            "{name}: listing differs from the golden file at threads = {threads}\n  \
             expected: {}\n  actual:   {}",
            expected_path.display(),
            actual_path.display()
        );
    }
}

#[test]
fn jacobi_listing_matches_golden() {
    check(
        "jacobi",
        include_str!("../../../benchmarks/jacobi.hpf"),
        include_str!("golden/jacobi.spmd"),
    );
}

#[test]
fn tomcatv_listing_matches_golden() {
    check(
        "tomcatv",
        include_str!("../../../benchmarks/tomcatv.hpf"),
        include_str!("golden/tomcatv.spmd"),
    );
}

#[test]
fn erlebacher_listing_matches_golden() {
    check(
        "erlebacher",
        include_str!("../../../benchmarks/erlebacher.hpf"),
        include_str!("golden/erlebacher.spmd"),
    );
}

#[test]
fn sp4_listing_matches_golden() {
    check("sp4", SP, include_str!("golden/sp4.spmd"));
}

#[test]
fn spsym_listing_matches_golden() {
    let src = SP.replace(
        "!HPF$ processors p(2, 2)",
        "!HPF$ processors p(2, number_of_processors())",
    );
    assert_ne!(src, SP, "the SP source no longer declares p(2, 2)");
    check("spsym", &src, include_str!("golden/spsym.spmd"));
}
