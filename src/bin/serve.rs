//! `swan-serve` — the campaign-as-a-service daemon.
//!
//! Usage:
//!
//! ```text
//! swan-serve [--quick | --scale F] [--seed N] [--workers N]
//!            [--queue-cap N] [--cache-groups N] [--max-requests N]
//!            [--trace-store DIR] [--pipe | --socket PATH]
//! ```
//!
//! The daemon builds the scenario plan once (default: the quick scale,
//! seed 42 — the committed golden parameters) and then answers
//! line-delimited requests, each a `ScenarioFilter` spec in the
//! `swan-report --only` syntax (`;` separates union alternatives, an
//! optional `id|` prefix names the request, `*` selects the full
//! plan). `stats` prints the counter line, `quit` ends the session.
//!
//! `--pipe` (the default) serves one session on stdin/stdout — the
//! form tests and CI drive. `--socket PATH` binds a Unix domain
//! socket and serves each connection as its own session, concurrently,
//! until the process is killed.
//!
//! Row lines are byte-identical to `swan-report --only` output for the
//! same filter: strip the `<id> row ` prefix and the remaining bytes
//! match the batch table's rows, whatever tier (cache, shared
//! in-flight execution, trace-store replay, fresh simulation) answered
//! them. `--workers N` sizes the execution pool (0 or omitted:
//! auto-detect), `--queue-cap` bounds the work queue (full queue =
//! backpressure, not memory growth), `--cache-groups` bounds the warm
//! result cache, and `--max-requests` caps concurrent sessions'
//! handlers.

use std::io::{self, BufReader};
use std::process::exit;
use std::sync::Arc;
use swan_core::{Scale, TraceStore};
use swan_serve::{Server, ServerConfig};

const USAGE: &str = "usage: swan-serve [--quick | --scale F] [--seed N] [--workers N]\n\
                     \x20                 [--queue-cap N] [--cache-groups N] [--max-requests N]\n\
                     \x20                 [--trace-store DIR] [--pipe | --socket PATH]";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    exit(2);
}

/// The flag's required value, or exit 2 with a diagnostic naming it.
fn value_of(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
    match args.next() {
        // A following `--flag` means the value was forgotten, not given.
        Some(v) if !v.starts_with("--") => v,
        _ => die(&format!("{flag} needs a value")),
    }
}

/// The flag's value parsed as `T`, or exit 2 with a diagnostic naming
/// the flag and the reason.
fn parse_num<T: std::str::FromStr<Err: std::fmt::Display>>(flag: &str, raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|e| die(&format!("invalid {flag} value `{raw}`: {e}")))
}

fn main() {
    let mut config = ServerConfig {
        workers: 0, // 0 = auto-detect below
        ..ServerConfig::default()
    };
    let mut store_dir: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut pipe = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => config.scale = Scale::quick(),
            "--scale" => config.scale = parse_num("--scale", &value_of("--scale", &mut args)),
            "--seed" => config.seed = parse_num("--seed", &value_of("--seed", &mut args)),
            "--workers" => {
                config.workers = parse_num("--workers", &value_of("--workers", &mut args));
            }
            "--queue-cap" => {
                config.queue_cap = parse_num("--queue-cap", &value_of("--queue-cap", &mut args));
            }
            "--cache-groups" => {
                config.cache_groups =
                    parse_num("--cache-groups", &value_of("--cache-groups", &mut args));
            }
            "--max-requests" => {
                config.max_requests =
                    parse_num("--max-requests", &value_of("--max-requests", &mut args));
            }
            "--trace-store" => store_dir = Some(value_of("--trace-store", &mut args)),
            "--socket" => socket = Some(value_of("--socket", &mut args)),
            "--pipe" => pipe = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unrecognized argument `{other}`")),
        }
    }
    if pipe && socket.is_some() {
        die("--pipe and --socket are mutually exclusive");
    }
    if config.workers == 0 {
        config.workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    }

    let kernels = swan_kernels::all_kernels();
    let store: Option<Arc<TraceStore>> = store_dir.map(|dir| {
        Arc::new(TraceStore::open(&dir, &kernels).unwrap_or_else(|e| {
            eprintln!("error: open trace store {dir}: {e}");
            exit(2);
        }))
    });
    let has_store = store.is_some();
    let server = Server::new(kernels, store, config);
    eprintln!(
        "swan-serve: {} scenarios in {} groups at scale {:.5} (seed {}), \
         {} workers, cache {} groups, store {}",
        server.plan_len(),
        server.total_groups(),
        server.config().scale.0,
        server.config().seed,
        server.config().workers,
        server.config().cache_groups,
        if has_store { "on" } else { "off" },
    );

    match socket {
        None => {
            // Pipe mode: one session over stdin/stdout, then exit.
            let stdin = io::stdin();
            if let Err(e) = server.serve_lines(stdin.lock(), io::stdout()) {
                eprintln!("error: session I/O failed: {e}");
                exit(1);
            }
        }
        Some(path) => serve_socket(&server, &path),
    }
}

/// Bind a Unix domain socket and serve each connection as its own
/// session until the process is killed. A stale socket file left by a
/// previous daemon is replaced; any other kind of file at the path is
/// refused.
fn serve_socket(server: &Server, path: &str) {
    use std::os::unix::fs::FileTypeExt;
    use std::os::unix::net::UnixListener;

    if let Ok(meta) = std::fs::symlink_metadata(path) {
        if !meta.file_type().is_socket() {
            die(&format!("--socket path {path} exists and is not a socket"));
        }
        std::fs::remove_file(path)
            .unwrap_or_else(|e| die(&format!("remove stale socket {path}: {e}")));
    }
    let listener =
        UnixListener::bind(path).unwrap_or_else(|e| die(&format!("bind --socket {path}: {e}")));
    eprintln!("swan-serve: listening on {path}");
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            match conn {
                Ok(stream) => {
                    let reader = match stream.try_clone() {
                        Ok(r) => BufReader::new(r),
                        Err(e) => {
                            eprintln!("swan-serve: clone connection: {e}");
                            continue;
                        }
                    };
                    scope.spawn(move || {
                        if let Err(e) = server.serve_lines(reader, stream) {
                            eprintln!("swan-serve: session ended with I/O error: {e}");
                        }
                    });
                }
                Err(e) => {
                    eprintln!("swan-serve: accept failed: {e}");
                    break;
                }
            }
        }
    });
}
