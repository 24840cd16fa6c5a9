//! Run the paper's figures: `figures [--tiny|--full] [name…]`.
//!
//! A name is a figure's name in [`cisp_bench::figures::FIGURES`] (`fig02`
//! … `fig13`, `sec8`); with none, every figure runs, in that order. The
//! figures share one memo, so each scenario and design is built once per
//! run. A bad argument prints the usage line and exits with code 2.

use cisp_bench::figures::{parse_args, usage};
use cisp_bench::Context;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, figures) = parse_args(&args).unwrap_or_else(|error| {
        eprintln!("figures: {error}\n{}", usage());
        std::process::exit(2)
    });
    let ctx = Context::new(scale);
    for (_, figure) in figures {
        figure(&ctx);
    }
    let (scenarios, designs) = ctx.builds();
    eprintln!("figures: {scenarios} scenario builds, {designs} cISP designs");
}
