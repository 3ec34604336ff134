//! `warehouse` — script-driven REPL over the stateful warehouse engine.
//!
//! ```text
//! cargo run -p mvmqo-warehouse --bin warehouse [SCRIPT] [--sf SF] [--seed SEED]
//! ```
//!
//! With a SCRIPT argument, executes its lines and exits non-zero on the
//! first error; without one, reads commands from stdin (one per line; see
//! `help`). The grammar is documented in `mvmqo_warehouse::script`.

use mvmqo_warehouse::Session;
use std::io::{BufRead, Write};

fn main() {
    let mut sf = 0.002;
    let mut seed = 42u64;
    let mut script: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sf" => sf = parse_or_die(args.next(), "--sf"),
            "--seed" => seed = parse_or_die(args.next(), "--seed"),
            "--help" | "-h" => {
                println!("usage: warehouse [SCRIPT] [--sf SF] [--seed SEED]\n");
                println!("{}", mvmqo_warehouse::script::HELP);
                return;
            }
            other if script.is_none() && !other.starts_with('-') => {
                script = Some(other.to_string())
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let mut session = Session::new(sf, seed);
    match script {
        Some(path) => run_script(&mut session, &path),
        None => repl(&mut session),
    }
}

fn parse_or_die<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value
        .as_deref()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("{flag} needs a numeric argument");
            std::process::exit(2);
        })
}

fn run_script(session: &mut Session, path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    for (lineno, line) in text.lines().enumerate() {
        match session.exec_line(line) {
            Ok(out) => {
                if !out.is_empty() {
                    println!("{}", out.trim_end());
                }
            }
            Err(e) => {
                eprintln!("{path}:{}: {e}", lineno + 1);
                std::process::exit(1);
            }
        }
    }
}

fn repl(session: &mut Session) {
    println!("mvmqo warehouse (TPC-D); type `help` for commands, ctrl-d to exit");
    let stdin = std::io::stdin();
    loop {
        print!("warehouse> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => match session.exec_line(&line) {
                Ok(out) => {
                    if !out.is_empty() {
                        println!("{}", out.trim_end());
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
    }
}
