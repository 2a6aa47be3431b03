//! `exp`: regenerate the paper's tables and figures through the experiment
//! registry. `exp <name>...` runs the named experiments, `exp all` the
//! full pass and `exp --list` prints the registry; `--quick` selects the
//! reduced pass and `--jobs N` fans sessions over N worker threads
//! (results are identical at any worker count).
fn main() -> std::process::ExitCode {
    mvqoe_experiments::registry::cli()
}
