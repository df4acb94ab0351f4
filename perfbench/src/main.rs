//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, in order: the provenance record (seed,
//! sizes, flush policy, machine), notes, the virtual-window fingerprint,
//! one line per metric with its unit and clock, and last a JSON result
//! line `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` makes the traced run and
//! reports per-layer metrics. Exits 1 on any failed or wrong answer.

use perfbench::report::{json_str, metric_lines, result_line};
use perfbench::stats::Machine;
use perfbench::{engine, run, Config, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    let v = v.unwrap_or_else(|| usage(&format!("{flag} needs a value")));
    v.parse()
        .unwrap_or_else(|_| usage(&format!("{flag}: cannot parse {v:?}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = parse(&flag, args.next());
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => seed = parse(&flag, args.next()),
            "--seconds" => seconds = parse(&flag, args.next()),
            "--trace" => {
                trace = match parse::<u8>(&flag, args.next()) {
                    0 => false,
                    1 => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !(seconds >= 0.0 && seconds.is_finite()) {
        usage("--seconds must be a non-negative number");
    }
    let cfg = Config::new(workload, seed, seconds, trace);

    let machine = Machine::probe();
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \
         \"sizes\": {}, \"flush_policy\": {}, \"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \
         \"rustc\": {}, \"loop\": \"closed\"}}}}",
        json_str(workload.name()),
        json_str(&cfg.sizes()),
        json_str(&engine::flush_policy()),
        machine.nproc,
        json_str(&machine.cpu),
        json_str(&machine.kernel),
        json_str(machine.rustc),
    );

    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            std::process::exit(1);
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    println!("virtual window: {}", out.fingerprint);
    if let Some(path) = &out.trace_file {
        println!("chrome trace: {}", path.display());
    }
    if let Some(e) = &out.first_error {
        eprintln!("perfbench: first failure: {e}");
    }
    print!("{}", metric_lines(&out.metrics));
    let correct = out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
