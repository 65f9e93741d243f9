//! The decision every blocking structure's write loop runs on.
//!
//! Each blocking structure has one private write loop: parse without
//! synchronization, decide, then lock, validate and write (paper §3). The
//! three update entry points differ only in the decision. `insert_in`
//! decides with [`Insert`], `remove_in` with [`Remove`], and `rmw_in` with
//! its [`RmwFn`] closure. The loop is generic over the decision source, so
//! each entry point gets its own monomorphized copy: insert and remove make
//! no dynamic call. `csds_elastic` runs its updates on these types too,
//! through the shared bucket chain ([`crate::hashtable::chain`]).

use crate::{RmwFn, RmwOutcome};

/// What an update does with the key its parse found.
pub enum Write<V> {
    /// Leave the map as it is.
    Keep,
    /// Link the value for an absent key, or replace a present key's value.
    Put(V),
    /// Unlink a present key.
    Remove,
}

/// Where a write loop gets its decision from.
pub trait Decide<V> {
    /// The decision for the value the parse found (`None`: absent).
    fn decide(&mut self, cur: Option<&V>) -> Write<V>;

    /// Takes back a [`Write::Put`] value whose round went stale, before
    /// the loop parses again. Insert offers it again; an RMW closure makes
    /// a new one, so its old value is dropped.
    fn unapplied(&mut self, _value: V) {}
}

/// `insert_in`: put the value if the key is absent.
pub struct Insert<V>(pub Option<V>);

impl<V> Decide<V> for Insert<V> {
    #[inline]
    fn decide(&mut self, cur: Option<&V>) -> Write<V> {
        match cur {
            Some(_) => Write::Keep,
            None => Write::Put(self.0.take().expect("a stale put gives its value back")),
        }
    }

    #[inline]
    fn unapplied(&mut self, value: V) {
        self.0 = Some(value);
    }
}

/// `remove_in`: unlink the key if it is present.
pub struct Remove;

impl<V> Decide<V> for Remove {
    #[inline]
    fn decide(&mut self, cur: Option<&V>) -> Write<V> {
        match cur {
            Some(_) => Write::Remove,
            None => Write::Keep,
        }
    }
}

/// `rmw_in`: `Some` puts, `None` keeps.
impl<V> Decide<V> for RmwFn<'_, V> {
    #[inline]
    fn decide(&mut self, cur: Option<&V>) -> Write<V> {
        self(cur).map_or(Write::Keep, Write::Put)
    }
}

/// What a write loop did, with the values before and after still borrowed
/// from the map and the guard: only `remove_in` and `rmw_in` clone.
pub struct Written<'g, V> {
    /// The value the parse found (`None`: absent).
    pub prev: Option<&'g V>,
    /// The value the map holds for the key afterwards.
    pub cur: Option<&'g V>,
    /// Whether the map changed.
    pub applied: bool,
}

impl<'g, V> Written<'g, V> {
    /// A `Keep`: the map is unchanged, and `cur` is the value it holds.
    pub fn kept(cur: Option<&'g V>) -> Self {
        Written {
            prev: cur,
            cur,
            applied: false,
        }
    }

    /// A link (`prev` absent), a replace, or an unlink (`cur` absent).
    pub fn wrote(prev: Option<&'g V>, cur: Option<&'g V>) -> Self {
        Written {
            prev,
            cur,
            applied: true,
        }
    }
}

impl<'g, V: Clone> From<Written<'g, V>> for RmwOutcome<'g, V> {
    fn from(w: Written<'g, V>) -> Self {
        RmwOutcome {
            prev: w.prev.cloned(),
            cur: w.cur,
            applied: w.applied,
        }
    }
}
