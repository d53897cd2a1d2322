//! The command-line front end shared by `sfc`, `sfd` and `sf-fuzz`.
//!
//! A flag is written in two places: its [`Opt`] item — flag, metavar, the
//! noun its error messages use, its help paragraph — and the line that
//! applies it. [`parse`] and [`usage`] both read the same tables, so a flag
//! cannot be parsed but undocumented, or documented but unparsed; lookups
//! on [`Parsed`] take the item, not a string, so a misspelt one does not
//! compile. Data flow: option tables → [`Parsed`] → [`pipeline_config`] →
//! `Pipeline`.
//!
//! **Precedence**, lowest to highest — the one rule [`pipeline_config`]
//! implements and `--help` prints ([`PRECEDENCE`]):
//!
//! 1. the preset (`--quick`, else the paper's full search budget);
//! 2. the parameter file (`sfc --params`, then the port run's reduced
//!    budget on top of it);
//! 3. explicit flags.
//!
//! What the parser pins:
//!
//! - arguments keep their command-line order ([`Parsed::iter`]), which is
//!   what `sfd`'s positional `--device` scope and `sf-fuzz`'s seed list
//!   read; a repeated single-valued flag's last occurrence wins;
//! - a flag that takes a value takes the next argument whatever it looks
//!   like (`--noise-seed -3` is a bad seed, not a missing value); a lone
//!   `-` is a positional, and a legal value (stdin/stdout);
//! - `-h`/`--help` ends parsing, so a binary can print its usage and exit
//!   0 whatever follows;
//! - unknown arguments and missing values are reported by [`parse`];
//!   a bad *value* is reported by the typed accessor that reads it, in the
//!   words ``bad WHAT `v` `` / `WHAT must be at least 1` ([`Opt::what`]).
//!
//! What the binaries pin on top of it: `sfc --help` and `--emit-params` act
//! and exit 0 before an input is required, and every flag is checked before
//! the input is read; `--resume` arms checkpointing at its path and an
//! explicit `--checkpoint` then redirects it; `--from-plan` and
//! `--port-plan` are mutually exclusive (exit 2); an `sfd` input under no
//! `--device`, or under one whose fingerprint equals the base device's,
//! carries no override, so its cache key is the base configuration's;
//! `sfd --jobs` sets `RAYON_NUM_THREADS`.

use crate::config::PipelineConfig;
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::DeviceRegistry;
use std::str::FromStr;

/// One command-line option.
#[derive(Debug, PartialEq)]
pub struct Opt {
    /// The flag as typed (`--islands`, `-o`).
    pub flag: &'static str,
    /// Metavar of the value the flag takes; `None` for a switch.
    pub value: Option<&'static str>,
    /// The noun error messages use for the value ("island count").
    pub what: &'static str,
    /// Help paragraph, one usage line per `\n`.
    pub help: &'static str,
}

impl Opt {
    /// A flag that takes no value.
    pub const fn switch(flag: &'static str, help: &'static str) -> Opt {
        Opt { flag, value: None, what: "", help }
    }

    /// A flag that takes one value.
    pub const fn valued(
        flag: &'static str,
        metavar: &'static str,
        what: &'static str,
        help: &'static str,
    ) -> Opt {
        Opt { flag, value: Some(metavar), what, help }
    }

    /// Parse one value of this option into its own type, so a value that
    /// does not fit is a usage error rather than a silent wrap.
    pub fn parse<T: FromStr>(&self, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad {} `{v}`", self.what))
    }
}

/// Declare a table of options: one `const NAME: Opt` per row plus the
/// table const that lists them in order, so an option cannot be declared
/// and then left out of the table its parser and usage read.
#[macro_export]
macro_rules! option_table {
    ($(#[$meta:meta])* $vis:vis $table:ident {
        $($(#[$row_meta:meta])* $name:ident = $opt:expr;)+
    }) => {
        $($(#[$row_meta])* $vis const $name: $crate::cli::Opt = $opt;)+
        $(#[$meta])* $vis const $table: &[$crate::cli::Opt] = &[$($name),+];
    };
}

/// Ends parsing; a binary that lists it prints [`usage`] and exits 0.
pub const HELP: Opt = Opt::switch("--help", "print this help and exit (also -h)");

option_table! {
    /// The flags that mean the same thing to `sfc` and `sfd`.
    pub SHARED {
        /// `--device-file`: see [`device_registry`].
        DEVICE_FILE = Opt::valued("--device-file", "FILE", "device file",
            "extend the device registry with JSON descriptors\n\
             (one DeviceSpec object or an array; repeatable);\n\
             a descriptor may also override a built-in by name");
        /// `--quick`: the preset layer of [`pipeline_config`].
        QUICK = Opt::switch("--quick", "scaled-down search budget (for quick experiments)");
        /// `--islands`.
        ISLANDS = Opt::valued("--islands", "N", "island count",
            "shard the search population across N supervised\n\
             islands evaluated in parallel; a panicked island is\n\
             quarantined (search degrades, never aborts) and the\n\
             final plan is byte-identical for a given seed\n\
             regardless of RAYON_NUM_THREADS");
        /// `--max-temporal`.
        MAX_TEMPORAL = Opt::valued("--max-temporal", "N", "temporal degree",
            "allow temporal blocking up to degree N for fusion\n\
             groups covering a whole recorded host time loop\n\
             (default 1 = disabled; at 1 the run makes the same\n\
             decisions as a build without temporal support)");
        /// `--mem-budget`.
        MEM_BUDGET = Opt::valued("--mem-budget", "SIZE", "memory budget",
            "enforce resource budgets: the service limits (IR\n\
             size, launch count, precedence depth, domain cells,\n\
             search-space caps, interpreter steps) with the\n\
             accounted-heap cap set to SIZE (digits with an\n\
             optional K/M/G suffix). A program that exceeds a\n\
             budget is rejected with a structured\n\
             `resource-exhausted` error naming the budget (sfc:\n\
             exit code 10) — never an OOM or a hang");
        /// `--no-verify`.
        NO_VERIFY = Opt::switch("--no-verify", "skip output verification");
        /// `--strict`.
        STRICT = Opt::switch("--strict",
            "fail on the first degradable error instead of\n\
             walking the degradation ladder");
    }
}

/// The precedence rule, as `--help` states it.
pub const PRECEDENCE: &str = "
Precedence, lowest to highest: the preset (--quick) < the parameter file
(--params, then the port run's reduced budget) < explicit flags.
";

/// A parsed command line: every argument, in command-line order.
#[derive(Debug)]
pub struct Parsed {
    /// `(None, text)` is a positional; `(Some(opt), value)` a flag with its
    /// value (empty for a switch).
    items: Vec<(Option<&'static Opt>, String)>,
}

/// Parse `argv` (without the program name) against `tables`.
pub fn parse(
    argv: impl IntoIterator<Item = String>,
    tables: &[&'static [Opt]],
) -> Result<Parsed, String> {
    let mut items = Vec::new();
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        if arg == "-" || !arg.starts_with('-') {
            items.push((None, arg));
            continue;
        }
        let name = if arg == "-h" { HELP.flag } else { arg.as_str() };
        let opt = tables
            .iter()
            .flat_map(|table| table.iter())
            .find(|opt| opt.flag == name)
            .ok_or_else(|| format!("unknown argument `{arg}`"))?;
        let value = match opt.value {
            Some(_) => argv.next().ok_or_else(|| format!("missing value for {arg}"))?,
            None => String::new(),
        };
        items.push((Some(opt), value));
        if *opt == HELP {
            break;
        }
    }
    Ok(Parsed { items })
}

impl Parsed {
    /// Every argument in command-line order: `(None, text)` for a
    /// positional, `(Some(opt), value)` for a flag.
    pub fn iter(&self) -> impl Iterator<Item = (Option<&'static Opt>, &str)> {
        self.items.iter().map(|(opt, text)| (*opt, text.as_str()))
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> impl Iterator<Item = &str> {
        self.iter().filter(|(opt, _)| opt.is_none()).map(|(_, text)| text)
    }

    /// Every value given for `opt`, in order (repeatable flags).
    pub fn values(&self, opt: &Opt) -> impl Iterator<Item = &str> {
        let flag = opt.flag;
        self.iter()
            .filter(move |(given, _)| given.is_some_and(|given| given.flag == flag))
            .map(|(_, value)| value)
    }

    /// The value of `opt`; the last occurrence wins.
    pub fn value(&self, opt: &Opt) -> Option<&str> {
        self.values(opt).last()
    }

    /// Whether `opt` was given.
    pub fn has(&self, opt: &Opt) -> bool {
        self.value(opt).is_some()
    }

    /// The value of `opt` as a number of its own type.
    pub fn number<T: FromStr>(&self, opt: &Opt) -> Result<Option<T>, String> {
        self.value(opt).map(|v| opt.parse(v)).transpose()
    }

    /// [`Self::number`] for a count: zero is a usage error, never a silent
    /// clamp.
    pub fn at_least_one<T: FromStr + Default + PartialEq>(
        &self,
        opt: &Opt,
    ) -> Result<Option<T>, String> {
        match self.number(opt)? {
            Some(n) if n == T::default() => Err(format!("{} must be at least 1", opt.what)),
            n => Ok(n),
        }
    }

    /// The value of `opt` as a byte size (`sf_core::parse_bytes`).
    pub fn bytes(&self, opt: &Opt) -> Result<Option<u64>, String> {
        let size = |v| {
            sf_core::parse_bytes(v)
                .ok_or_else(|| format!("bad {} `{v}` (digits with optional K/M/G)", opt.what))
        };
        self.value(opt).map(size).transpose()
    }
}

/// The `--help` text: `synopsis`, one entry per option of `tables` (flag
/// and metavar in a 20-column gutter, the help paragraph beside it), then
/// `footer`.
pub fn usage(synopsis: &str, tables: &[&[Opt]], footer: &str) -> String {
    let mut out = format!("usage: {synopsis}\n");
    for opt in tables.iter().flat_map(|table| table.iter()) {
        let head = match opt.value {
            Some(metavar) => format!("{} {metavar}", opt.flag),
            None => opt.flag.to_string(),
        };
        let mut help = opt.help.lines();
        // A head wider than the gutter takes a line of its own.
        if head.len() > 19 {
            out += &format!("  {head}\n");
        } else {
            out += &format!("  {head:<19} {}\n", help.next().unwrap_or_default());
        }
        for line in help {
            out += &format!("{:22}{line}\n", "");
        }
    }
    out + footer
}

/// The device registry the run resolves names in: the built-ins plus every
/// `--device-file`, in command-line order.
pub fn device_registry(args: &Parsed) -> Result<DeviceRegistry, sf_gpusim::registry::RegistryError> {
    let mut registry = DeviceRegistry::builtin();
    for path in args.values(&DEVICE_FILE) {
        registry.load_file(std::path::Path::new(path))?;
    }
    Ok(registry)
}

/// Build the run's configuration for `device` in the module's stated
/// order. `parameter_file` is layer 2 — `sfc` loads `--params` and the port
/// plan there; `sfd`, which has neither, passes the identity. An `Err` is a
/// usage error (a bad value of a shared flag).
pub fn pipeline_config(
    args: &Parsed,
    device: DeviceSpec,
    parameter_file: impl FnOnce(PipelineConfig) -> PipelineConfig,
) -> Result<PipelineConfig, String> {
    let preset = if args.has(&QUICK) {
        PipelineConfig::quick(device)
    } else {
        PipelineConfig::automated(device)
    };
    let mut config = parameter_file(preset);
    if let Some(n) = args.at_least_one(&ISLANDS)? {
        config = config.with_islands(n);
    }
    if let Some(n) = args.at_least_one(&MAX_TEMPORAL)? {
        config = config.with_max_temporal(n);
    }
    if let Some(bytes) = args.bytes(&MEM_BUDGET)? {
        let limits = sf_core::Limits::service().cap(sf_core::ResourceKind::HeapBytes, bytes);
        config = config.with_budget(limits);
    }
    if args.has(&NO_VERIFY) {
        config.verify = false;
    }
    if args.has(&STRICT) {
        config = config.strict();
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUT: Opt = Opt::valued("-o", "FILE", "output file", "where to write");
    const SEED: Opt = Opt::valued("--seed", "N", "seed", "repeatable");
    const DEVICE: Opt = Opt::valued("--device", "NAME", "device", "positional scope");
    const TABLES: &[&[Opt]] = &[&[OUT, SEED, DEVICE], SHARED, &[HELP]];

    fn parsed(argv: &[&str]) -> Result<Parsed, String> {
        parse(argv.iter().map(|s| s.to_string()), TABLES)
    }

    #[test]
    fn arguments_keep_their_order_with_interleaved_positionals() {
        let args = parsed(&["a.cu", "--device", "v100", "b.cu", "--quick", "c.cu"]).unwrap();
        let seen: Vec<(Option<&str>, &str)> =
            args.iter().map(|(opt, text)| (opt.map(|o| o.flag), text)).collect();
        assert_eq!(
            seen,
            [
                (None, "a.cu"),
                (Some("--device"), "v100"),
                (None, "b.cu"),
                (Some("--quick"), ""),
                (None, "c.cu"),
            ]
        );
        assert_eq!(args.positionals().collect::<Vec<_>>(), ["a.cu", "b.cu", "c.cu"]);
    }

    #[test]
    fn repeatable_flags_keep_every_value_and_the_last_one_wins() {
        let args = parsed(&["--seed", "7", "--islands", "2", "--seed", "9", "--islands", "4"]);
        let args = args.unwrap();
        assert_eq!(args.values(&SEED).collect::<Vec<_>>(), ["7", "9"]);
        assert_eq!(args.value(&SEED), Some("9"));
        assert_eq!(args.at_least_one::<usize>(&ISLANDS), Ok(Some(4)));
        assert!(args.has(&ISLANDS) && !args.has(&QUICK));
        assert_eq!(args.number::<u32>(&MAX_TEMPORAL), Ok(None));
    }

    #[test]
    fn a_dash_is_a_value_and_a_positional_and_values_may_start_with_one() {
        let args = parsed(&["-o", "-", "-", "--seed", "-3"]).unwrap();
        assert_eq!(args.value(&OUT), Some("-"));
        assert_eq!(args.positionals().collect::<Vec<_>>(), ["-"]);
        // The flag takes the next argument whatever it looks like; its
        // type then rejects it.
        assert_eq!(args.value(&SEED), Some("-3"));
        assert_eq!(args.number::<u64>(&SEED), Err("bad seed `-3`".into()));
        assert_eq!(args.number::<i64>(&SEED), Ok(Some(-3)));
        // Even another flag's name is a value in value position.
        let args = parsed(&["--seed", "--quick"]).unwrap();
        assert_eq!(args.value(&SEED), Some("--quick"));
        assert!(!args.has(&QUICK));
    }

    #[test]
    fn structural_errors_name_the_argument() {
        assert_eq!(parsed(&["a.cu", "--seed"]).unwrap_err(), "missing value for --seed");
        assert_eq!(parsed(&["--frob", "1"]).unwrap_err(), "unknown argument `--frob`");
        assert_eq!(parsed(&["-x"]).unwrap_err(), "unknown argument `-x`");
        // Without HELP in the tables, -h is just an unknown argument.
        let err = parse(["-h".to_string()], &[SHARED]).unwrap_err();
        assert_eq!(err, "unknown argument `-h`");
    }

    #[test]
    fn help_ends_parsing_under_either_spelling() {
        for spelling in ["-h", "--help"] {
            let args = parsed(&["--quick", spelling, "--no-such-flag", "--seed"]).unwrap();
            assert!(args.has(&HELP) && args.has(&QUICK));
        }
    }

    #[test]
    fn value_errors_use_the_options_noun() {
        let args = parsed(&["--islands", "0", "--max-temporal", "4294967297"]).unwrap();
        assert_eq!(
            args.at_least_one::<usize>(&ISLANDS),
            Err("island count must be at least 1".into())
        );
        assert_eq!(
            args.at_least_one::<u32>(&MAX_TEMPORAL),
            Err("bad temporal degree `4294967297`".into())
        );
        let args = parsed(&["--mem-budget", "12Q"]).unwrap();
        assert_eq!(
            args.bytes(&MEM_BUDGET),
            Err("bad memory budget `12Q` (digits with optional K/M/G)".into())
        );
        let args = parsed(&["--mem-budget", "64M"]).unwrap();
        assert_eq!(args.bytes(&MEM_BUDGET), Ok(Some(64 << 20)));
    }

    #[test]
    fn usage_lists_every_option_once_with_its_metavar_and_help() {
        let text = usage("prog [options]", TABLES, "footer\n");
        assert!(text.starts_with("usage: prog [options]\n  -o FILE             where to write\n"));
        assert!(text.ends_with("\nfooter\n"));
        for opt in TABLES.iter().flat_map(|t| t.iter()) {
            let head = format!("  {} {}", opt.flag, opt.value.unwrap_or_default());
            assert_eq!(text.matches(head.trim_end()).count(), 1, "{}", opt.flag);
            for line in opt.help.lines() {
                assert!(text.contains(line), "{}: {line}", opt.flag);
            }
        }
        // A continuation line sits under the help column.
        assert!(text.contains("\n                      islands evaluated in parallel;"));
    }

    #[test]
    fn explicit_flags_override_the_parameter_file_which_overrides_the_preset() {
        use sf_gpusim::device::DeviceSpec;
        let file = |mut config: PipelineConfig| {
            config.search.generations = 7;
            config.search.islands = 2;
            config.search.max_temporal = 2;
            config
        };
        let args = parsed(&["--quick", "--islands", "3"]).unwrap();
        let config = pipeline_config(&args, DeviceSpec::k20x(), file).unwrap();
        assert_eq!(config.search.population, 24, "the preset");
        assert_eq!(config.search.generations, 7, "the file over the preset");
        assert_eq!(config.search.islands, 3, "the flag over the file");
        assert_eq!(config.search.max_temporal, 2, "the file where no flag speaks");
        assert!(config.verify && config.budget.is_unlimited());

        let args = parsed(&["--no-verify", "--strict", "--mem-budget", "1M", "--max-temporal", "4"]);
        let config = pipeline_config(&args.unwrap(), DeviceSpec::k20x(), file).unwrap();
        assert_eq!(config.search.population, 100, "no preset: the paper's budget");
        assert_eq!(config.search.max_temporal, 4);
        assert!(!config.verify);
        assert_eq!(config.degrade, crate::config::DegradePolicy::Strict);
        assert_eq!(config.budget.limit(sf_core::ResourceKind::HeapBytes), Some(1 << 20));
        assert_eq!(config.budget.limit(sf_core::ResourceKind::Launches), Some(512));

        let args = parsed(&["--islands", "0"]).unwrap();
        assert!(pipeline_config(&args, DeviceSpec::k20x(), file).is_err());
    }
}
