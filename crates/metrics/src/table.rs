//! The declarative counter table: one row per signal, everything else
//! generated.
//!
//! [`stat_table!`](crate::stat_table) turns a list of rows — field name,
//! `sum`/`max` merge rule, Prometheus name, help text — into a statistics
//! struct with public `u64` fields, its cross-thread `merge`, the flat word
//! layout published through [`crate::registry::SeqSlot`] (`WORDS`,
//! `to_words`, `from_words`), and the `SCALARS` descriptor table the
//! Prometheus exposition and the layout tests walk. With a `cells` clause it
//! also generates the thread-local recording mirror (one plain
//! [`std::cell::Cell`] per scalar) with `new`/`peek`/`take`.
//!
//! Two instances exist: [`crate::StatsSnapshot`] (with its recorder cells)
//! and `csds_service::CoreStats`. Adding a signal to either is one row.

/// How a scalar row combines across threads in the generated `merge`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeRule {
    /// Monotonic total: merged by addition, exported as a Prometheus counter.
    Sum,
    /// High-water mark: merged by maximum, exported as a Prometheus gauge.
    Max,
}

impl MergeRule {
    /// Combine two readings of one row.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            MergeRule::Sum => a + b,
            MergeRule::Max => a.max(b),
        }
    }

    /// The Prometheus metric type a row under this rule is exported as.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            MergeRule::Sum => "counter",
            MergeRule::Max => "gauge",
        }
    }
}

/// One scalar row of a [`stat_table!`](crate::stat_table): word `i` of the
/// flat layout is the value of `SCALARS[i]`.
#[derive(Clone, Copy, Debug)]
pub struct Scalar {
    /// Field name in the generated struct.
    pub name: &'static str,
    /// Cross-thread merge rule.
    pub rule: MergeRule,
    /// Prometheus metric name.
    pub prom: &'static str,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
}

/// Append one `# HELP` / `# TYPE` / sample stanza to a Prometheus text
/// exposition.
pub fn prometheus_stanza(out: &mut String, name: &str, help: &str, kind: &str, v: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {v}\n"
    ));
}

/// Append the stanza of every scalar row (`words[i]` is the reading of
/// `rows[i]`, the order `to_words` writes them in).
pub fn prometheus_scalars(out: &mut String, rows: &[Scalar], words: &[u64]) {
    for (row, &v) in rows.iter().zip(words) {
        prometheus_stanza(out, row.prom, row.help, row.rule.prometheus_type(), v);
    }
}

/// Layout self-check for a table instance's unit tests: every word index
/// carries a distinct value through `to_words → SeqSlot::publish → read →
/// from_words`, and `merge` combines each scalar row under its rule while
/// histogram and array words add.
///
/// # Panics
/// Panics (with the offending row or word) when the layout or `merge`
/// disagrees with the table.
pub fn assert_layout<S, const N: usize>(
    scalars: &[Scalar],
    from_words: impl Fn(&[u64; N]) -> S,
    to_words: impl Fn(&S) -> [u64; N],
    merge: impl Fn(&mut S, &S),
) {
    let a: [u64; N] = std::array::from_fn(|i| i as u64 + 1);
    let b: [u64; N] = std::array::from_fn(|i| 1_000 + 2 * i as u64);
    let slot = crate::registry::SeqSlot::<N>::new();
    slot.publish(&to_words(&from_words(&a)));
    assert_eq!(slot.read(), Some(a), "word layout is not a bijection");
    let mut merged = from_words(&a);
    merge(&mut merged, &from_words(&b));
    for (i, got) in to_words(&merged).into_iter().enumerate() {
        let (name, rule) = scalars
            .get(i)
            .map_or(("histogram/array word", MergeRule::Sum), |r| {
                (r.name, r.rule)
            });
        assert_eq!(
            got,
            rule.apply(a[i], b[i]),
            "word {i} ({name}) under {rule:?}"
        );
    }
}

/// Generate a statistics struct and everything derived from its rows; see
/// the [module docs](crate::table).
///
/// ```
/// csds_metrics::stat_table! {
///     /// Example statistics.
///     pub struct Demo;
///     scalars {
///         /// Things done.
///         done: sum, "demo_done_total", "things done";
///         /// Deepest queue seen.
///         depth: max, "demo_depth_max", "deepest queue seen";
///     }
///     hists {
///         /// Latency distribution.
///         latency;
///     }
///     arrays {}
/// }
/// let mut a = Demo { done: 2, depth: 5, ..Demo::default() };
/// a.merge(&Demo { done: 3, depth: 4, ..Demo::default() });
/// assert_eq!((a.done, a.depth), (5, 5));
/// assert_eq!(Demo::WORDS, 2 + csds_metrics::LogHistogram::WORDS);
/// assert_eq!(Demo::from_words(&a.to_words()).done, 5);
/// ```
#[macro_export]
macro_rules! stat_table {
    (
        $(#[$smeta:meta])*
        pub struct $Stats:ident $(, cells $Cells:ident)?;
        scalars { $( $(#[$doc:meta])* $name:ident: $rule:ident, $prom:literal, $help:literal; )* }
        hists { $( $(#[$hdoc:meta])* $hist:ident; )* }
        arrays { $( $(#[$adoc:meta])* $arr:ident: $len:expr; )* }
    ) => {
        $(#[$smeta])*
        #[derive(Clone, Debug, Default)]
        pub struct $Stats {
            $( $(#[$doc])* pub $name: u64, )*
            $( $(#[$hdoc])* pub $hist: $crate::LogHistogram, )*
            $( $(#[$adoc])* pub $arr: [u64; $len], )*
        }

        impl $Stats {
            /// The scalar rows of the table, in flat-layout word order.
            pub const SCALARS: &'static [$crate::table::Scalar] = &[
                $( $crate::table::Scalar {
                    name: stringify!($name),
                    rule: $crate::stat_table!(@rule $rule),
                    prom: $prom,
                    help: $help,
                }, )*
            ];

            /// Number of `u64` words in the flat representation: the
            /// scalars, then each histogram, then each array.
            pub const WORDS: usize = Self::SCALARS.len()
                $( + $crate::stat_table!(@hist_words $hist) )*
                $( + $len )*;

            /// Merge another instance into this one, row by row under each
            /// row's merge rule (histograms and arrays add bucket-wise).
            pub fn merge(&mut self, other: &Self) {
                $( self.$name = $crate::stat_table!(@rule $rule).apply(self.$name, other.$name); )*
                $( self.$hist.merge(&other.$hist); )*
                $( for (a, b) in self.$arr.iter_mut().zip(other.$arr.iter()) {
                    *a += b;
                } )*
            }

            /// Flatten into the fixed word layout published through
            /// [`SeqSlot`]($crate::registry::SeqSlot).
            pub fn to_words(&self) -> [u64; Self::WORDS] {
                let mut out = [0u64; Self::WORDS];
                let mut at = 0;
                $( out[at] = self.$name; at += 1; )*
                $( self.$hist.write_words(&mut out[at..]); at += $crate::LogHistogram::WORDS; )*
                $( out[at..at + $len].copy_from_slice(&self.$arr); at += $len; )*
                debug_assert_eq!(at, Self::WORDS);
                out
            }

            /// Rebuild from the layout written by [`Self::to_words`].
            pub fn from_words(words: &[u64; Self::WORDS]) -> Self {
                let mut at = 0;
                let mut next = |n: usize| {
                    at += n;
                    &words[at - n..at]
                };
                // Struct fields are evaluated in source order, which is the
                // order `to_words` wrote them in.
                Self {
                    $( $name: next(1)[0], )*
                    $( $hist: $crate::LogHistogram::read_words(
                        next($crate::LogHistogram::WORDS),
                    ), )*
                    $( $arr: next($len).try_into().expect("array block length"), )*
                }
            }
        }

        $crate::stat_table!(@cells $Stats; $($Cells)?; [$($name)*] [$($hist)*] [$($arr: $len)*]);
    };

    (@rule sum) => { $crate::table::MergeRule::Sum };
    (@rule max) => { $crate::table::MergeRule::Max };
    (@hist_words $hist:ident) => { $crate::LogHistogram::WORDS };

    (@cells $Stats:ident; ; $($rest:tt)*) => {};
    (@cells $Stats:ident; $Cells:ident;
        [$($name:ident)*] [$($hist:ident)*] [$($arr:ident: $len:expr)*]) => {
        /// Thread-local recording mirror of the table: one plain `Cell`
        /// per scalar row, a `RefCell` per histogram and array.
        struct $Cells {
            $( $name: std::cell::Cell<u64>, )*
            $( $hist: std::cell::RefCell<$crate::LogHistogram>, )*
            $( $arr: std::cell::RefCell<[u64; $len]>, )*
        }

        impl $Cells {
            const fn new() -> Self {
                $Cells {
                    $( $name: std::cell::Cell::new(0), )*
                    $( $hist: std::cell::RefCell::new($crate::LogHistogram::new()), )*
                    $( $arr: std::cell::RefCell::new([0; $len]), )*
                }
            }

            /// Copy the current readings **without** resetting.
            fn peek(&self) -> $Stats {
                $Stats {
                    $( $name: self.$name.get(), )*
                    $( $hist: self.$hist.borrow().clone(), )*
                    $( $arr: *self.$arr.borrow(), )*
                }
            }

            /// Snapshot and clear every cell.
            fn take(&self) -> $Stats {
                $Stats {
                    $( $name: self.$name.replace(0), )*
                    $( $hist: std::mem::take(&mut *self.$hist.borrow_mut()), )*
                    $( $arr: std::mem::replace(&mut *self.$arr.borrow_mut(), [0; $len]), )*
                }
            }
        }
    };
}
