//! The one argument walker the harness binaries share. A binary iterates
//! its arguments, matches the ones it knows, pulls a flag's value with
//! [`Args::value`], and sends everything else — an unknown flag, a missing
//! or ill-typed value — to [`Args::usage`] before anything runs or is
//! written.

/// The arguments of one invocation, consumed front to back.
pub struct Args {
    rest: std::vec::IntoIter<String>,
    usage: String,
}

impl Args {
    /// The process's arguments after the program name.
    pub fn from_env(usage: impl Into<String>) -> Self {
        Args::new(std::env::args().skip(1).collect(), usage)
    }

    /// An explicit argument list (a sub-command's tail).
    pub fn new(args: Vec<String>, usage: impl Into<String>) -> Self {
        Args {
            rest: args.into_iter(),
            usage: usage.into(),
        }
    }

    /// Print the usage text on stderr and exit with status 2.
    pub fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2)
    }

    /// The value of the flag just read: the next argument, if there is one
    /// and `parse` accepts it; a usage error otherwise.
    pub fn value<T>(&mut self, parse: impl FnOnce(&str) -> Option<T>) -> T {
        match self.rest.next().and_then(|s| parse(&s)) {
            Some(v) => v,
            None => self.usage(),
        }
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }
}

/// A count of at least one (`--jobs`, `--wave`, `--top`, `--limit`).
pub fn positive(s: &str) -> Option<usize> {
    s.parse().ok().filter(|&n| n >= 1)
}

/// A non-empty name that is not itself a flag (`--tag`).
pub fn name(s: &str) -> Option<String> {
    (!s.is_empty() && !s.starts_with('-')).then(|| s.to_string())
}
