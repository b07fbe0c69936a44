//! `sptx` — command-line trainer for SparseTransX models.
//!
//! See `sptx help` for usage.

use std::io::{ErrorKind, Write};

use sptransx_repro::cli;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = cli::parse_args(&raw).and_then(|args| cli::run(&args));
    match result {
        // A reader that stops early (`sptx … | head`) closes the pipe; the
        // work is done by then, so a broken pipe is a clean exit, not a panic.
        Ok(message) => match writeln!(std::io::stdout().lock(), "{message}") {
            Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                let _ = writeln!(std::io::stderr(), "error writing output: {e}");
                std::process::exit(1);
            }
            _ => {}
        },
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "{e}");
            std::process::exit(2);
        }
    }
}
