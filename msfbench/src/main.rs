//! `msfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host and input record, then, as the last line, the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The same
//! record, the result and (traced runs) every span are also written to
//! `.msfbench/<workload>-seed<n>-trace<t>.json` under the working
//! directory. Exits 2 on a usage error, 1 when the run cannot complete.

use msfbench::{out_dir, report, run, Options, Report};

fn main() {
    msfbench::probe::pin_malloc_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("msfbench: {e}");
            eprintln!(
                "usage: msfbench --workload <sparse-mesh|skewed-dense|dynamic-churn|out-of-core> \
                 --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]"
            );
            std::process::exit(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(Report::Run(o)) => o,
        Ok(Report::Scaling(lines)) => {
            println!("{lines}");
            return;
        }
        Err(e) => {
            eprintln!("msfbench: {e}");
            std::process::exit(1);
        }
    };
    let result = report::result_line(
        outcome.tally.attempted,
        outcome.tally.failed,
        &outcome.sheet,
    );
    let file = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    let body = format!(
        "{{\"host\": {},\n\"result\": {},\n\"spans\": {}}}\n",
        outcome.host,
        result,
        outcome.spans.as_deref().unwrap_or("null")
    );
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&file, body)) {
        eprintln!("msfbench: writing {}: {e}", file.display());
        std::process::exit(1);
    }
    println!("host {}", outcome.host);
    println!("{result}");
}
