//! Drop-in shims for `std::sync::atomic` types, `fence`, thread spawn/join,
//! statics and thread-locals.
//!
//! Outside a model execution every shim passes straight through to the real
//! `std` primitive (one thread-local pointer check on the fast path), so the
//! whole workspace can be compiled against the shims — feature unification
//! makes that happen during workspace-wide test builds — without changing
//! behaviour. Inside a model execution every operation becomes a scheduling
//! point recorded by the exhaustive explorer.

use crate::exec::{self, ExecCtx, OpDesc, OpKind, Tid};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};

/// Entry guard for a shimmed operation: announces the step and waits to be
/// scheduled. `None` means "not in a model — perform the raw operation".
#[inline]
fn enter(
    kind: OpKind,
    loc: usize,
    site: &'static Location<'static>,
) -> Option<(*const ExecCtx, Tid)> {
    let (ctx, tid) = exec::current()?;
    // Operations reached from destructors while this model thread unwinds
    // (a failed assertion dropping an `Arc`-owned structure whose `Drop`
    // touches atomics, say) must not re-enter the scheduler: the execution
    // is being dismantled, and on a poisoned context the abort panic would
    // double-panic straight into a process abort. Unwinding threads still
    // run exclusively — every other model thread is parked — so performing
    // the raw operation without a scheduling point is sound.
    if std::thread::panicking() {
        return None;
    }
    let op = OpDesc { kind, loc, site };
    exec::step(unsafe { &*ctx }, tid, op);
    Some((ctx, tid))
}

macro_rules! shim_atomic_int {
    ($Name:ident, $Prim:ty, $tag:literal) => {
        /// Model-checkable stand-in for the `std::sync::atomic` type of the
        /// same name. Wraps the real atomic; in-model operations are
        /// performed `SeqCst` under the scheduler lock (the model is
        /// sequentially consistent — requested orderings feed the
        /// happens-before diagnostic instead).
        #[derive(Debug, Default)]
        pub struct $Name {
            raw: std::sync::atomic::$Name,
        }

        impl $Name {
            pub const fn new(v: $Prim) -> Self {
                Self {
                    raw: std::sync::atomic::$Name::new(v),
                }
            }

            #[inline]
            fn addr(&self) -> usize {
                self as *const Self as usize
            }

            pub fn into_inner(self) -> $Prim {
                self.raw.into_inner()
            }

            pub fn get_mut(&mut self) -> &mut $Prim {
                self.raw.get_mut()
            }

            #[inline]
            #[track_caller]
            pub fn load(&self, ord: Ordering) -> $Prim {
                match enter(OpKind::Load, self.addr(), Location::caller()) {
                    None => self.raw.load(ord),
                    Some((ctx, me)) => {
                        let v = self.raw.load(Ordering::SeqCst);
                        exec::record_load(
                            unsafe { &*ctx },
                            me,
                            self.addr(),
                            ord,
                            v as u64,
                            Location::caller(),
                            concat!($tag, ".load"),
                        );
                        v
                    }
                }
            }

            #[inline]
            #[track_caller]
            pub fn store(&self, v: $Prim, ord: Ordering) {
                match enter(OpKind::Store, self.addr(), Location::caller()) {
                    None => self.raw.store(v, ord),
                    Some((ctx, me)) => {
                        self.raw.store(v, Ordering::SeqCst);
                        exec::record_store(
                            unsafe { &*ctx },
                            me,
                            self.addr(),
                            ord,
                            v as u64,
                            Location::caller(),
                            concat!($tag, ".store"),
                        );
                    }
                }
            }

            #[inline]
            #[track_caller]
            pub fn swap(&self, v: $Prim, ord: Ordering) -> $Prim {
                match enter(OpKind::Rmw, self.addr(), Location::caller()) {
                    None => self.raw.swap(v, ord),
                    Some((ctx, me)) => {
                        let old = self.raw.swap(v, Ordering::SeqCst);
                        exec::record_rmw(
                            unsafe { &*ctx },
                            me,
                            self.addr(),
                            ord,
                            old as u64,
                            Location::caller(),
                            concat!($tag, ".swap"),
                        );
                        old
                    }
                }
            }

            #[inline]
            #[track_caller]
            pub fn compare_exchange(
                &self,
                current: $Prim,
                new: $Prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$Prim, $Prim> {
                match enter(OpKind::Rmw, self.addr(), Location::caller()) {
                    None => self.raw.compare_exchange(current, new, success, failure),
                    Some((ctx, me)) => {
                        let r = self.raw.compare_exchange(
                            current,
                            new,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                        match r {
                            Ok(old) => exec::record_rmw(
                                unsafe { &*ctx },
                                me,
                                self.addr(),
                                success,
                                old as u64,
                                Location::caller(),
                                concat!($tag, ".cas"),
                            ),
                            Err(old) => exec::record_load(
                                unsafe { &*ctx },
                                me,
                                self.addr(),
                                failure,
                                old as u64,
                                Location::caller(),
                                concat!($tag, ".cas-fail"),
                            ),
                        }
                        r
                    }
                }
            }

            /// In-model, `compare_exchange_weak` never fails spuriously (it
            /// forwards to the strong variant): spurious failure is a
            /// *liveness* wrinkle, and modelling it would blow up the
            /// schedule space without adding safety coverage.
            #[inline]
            #[track_caller]
            pub fn compare_exchange_weak(
                &self,
                current: $Prim,
                new: $Prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$Prim, $Prim> {
                if exec::in_model() {
                    self.compare_exchange(current, new, success, failure)
                } else {
                    self.raw
                        .compare_exchange_weak(current, new, success, failure)
                }
            }

            #[inline]
            #[track_caller]
            pub fn fetch_add(&self, v: $Prim, ord: Ordering) -> $Prim {
                match enter(OpKind::Rmw, self.addr(), Location::caller()) {
                    None => self.raw.fetch_add(v, ord),
                    Some((ctx, me)) => {
                        let old = self.raw.fetch_add(v, Ordering::SeqCst);
                        exec::record_rmw(
                            unsafe { &*ctx },
                            me,
                            self.addr(),
                            ord,
                            old as u64,
                            Location::caller(),
                            concat!($tag, ".fetch_add"),
                        );
                        old
                    }
                }
            }

            #[inline]
            #[track_caller]
            pub fn fetch_sub(&self, v: $Prim, ord: Ordering) -> $Prim {
                match enter(OpKind::Rmw, self.addr(), Location::caller()) {
                    None => self.raw.fetch_sub(v, ord),
                    Some((ctx, me)) => {
                        let old = self.raw.fetch_sub(v, Ordering::SeqCst);
                        exec::record_rmw(
                            unsafe { &*ctx },
                            me,
                            self.addr(),
                            ord,
                            old as u64,
                            Location::caller(),
                            concat!($tag, ".fetch_sub"),
                        );
                        old
                    }
                }
            }

            #[inline]
            #[track_caller]
            pub fn fetch_or(&self, v: $Prim, ord: Ordering) -> $Prim {
                match enter(OpKind::Rmw, self.addr(), Location::caller()) {
                    None => self.raw.fetch_or(v, ord),
                    Some((ctx, me)) => {
                        let old = self.raw.fetch_or(v, Ordering::SeqCst);
                        exec::record_rmw(
                            unsafe { &*ctx },
                            me,
                            self.addr(),
                            ord,
                            old as u64,
                            Location::caller(),
                            concat!($tag, ".fetch_or"),
                        );
                        old
                    }
                }
            }

            #[inline]
            #[track_caller]
            pub fn fetch_and(&self, v: $Prim, ord: Ordering) -> $Prim {
                match enter(OpKind::Rmw, self.addr(), Location::caller()) {
                    None => self.raw.fetch_and(v, ord),
                    Some((ctx, me)) => {
                        let old = self.raw.fetch_and(v, Ordering::SeqCst);
                        exec::record_rmw(
                            unsafe { &*ctx },
                            me,
                            self.addr(),
                            ord,
                            old as u64,
                            Location::caller(),
                            concat!($tag, ".fetch_and"),
                        );
                        old
                    }
                }
            }
        }
    };
}

shim_atomic_int!(AtomicU64, u64, "u64");
shim_atomic_int!(AtomicUsize, usize, "usize");
shim_atomic_int!(AtomicU32, u32, "u32");
shim_atomic_int!(AtomicI64, i64, "i64");

/// Model-checkable `AtomicBool` (same contract as the integer shims).
#[derive(Debug, Default)]
pub struct AtomicBool {
    raw: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    pub const fn new(v: bool) -> Self {
        Self {
            raw: std::sync::atomic::AtomicBool::new(v),
        }
    }

    #[inline]
    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    pub fn into_inner(self) -> bool {
        self.raw.into_inner()
    }

    pub fn get_mut(&mut self) -> &mut bool {
        self.raw.get_mut()
    }

    #[inline]
    #[track_caller]
    pub fn load(&self, ord: Ordering) -> bool {
        match enter(OpKind::Load, self.addr(), Location::caller()) {
            None => self.raw.load(ord),
            Some((ctx, me)) => {
                let v = self.raw.load(Ordering::SeqCst);
                exec::record_load(
                    unsafe { &*ctx },
                    me,
                    self.addr(),
                    ord,
                    v as u64,
                    Location::caller(),
                    "bool.load",
                );
                v
            }
        }
    }

    #[inline]
    #[track_caller]
    pub fn store(&self, v: bool, ord: Ordering) {
        match enter(OpKind::Store, self.addr(), Location::caller()) {
            None => self.raw.store(v, ord),
            Some((ctx, me)) => {
                self.raw.store(v, Ordering::SeqCst);
                exec::record_store(
                    unsafe { &*ctx },
                    me,
                    self.addr(),
                    ord,
                    v as u64,
                    Location::caller(),
                    "bool.store",
                );
            }
        }
    }

    #[inline]
    #[track_caller]
    pub fn swap(&self, v: bool, ord: Ordering) -> bool {
        match enter(OpKind::Rmw, self.addr(), Location::caller()) {
            None => self.raw.swap(v, ord),
            Some((ctx, me)) => {
                let old = self.raw.swap(v, Ordering::SeqCst);
                exec::record_rmw(
                    unsafe { &*ctx },
                    me,
                    self.addr(),
                    ord,
                    old as u64,
                    Location::caller(),
                    "bool.swap",
                );
                old
            }
        }
    }

    #[inline]
    #[track_caller]
    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        match enter(OpKind::Rmw, self.addr(), Location::caller()) {
            None => self.raw.compare_exchange(current, new, success, failure),
            Some((ctx, me)) => {
                let r = self
                    .raw
                    .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst);
                match r {
                    Ok(old) => exec::record_rmw(
                        unsafe { &*ctx },
                        me,
                        self.addr(),
                        success,
                        old as u64,
                        Location::caller(),
                        "bool.cas",
                    ),
                    Err(old) => exec::record_load(
                        unsafe { &*ctx },
                        me,
                        self.addr(),
                        failure,
                        old as u64,
                        Location::caller(),
                        "bool.cas-fail",
                    ),
                }
                r
            }
        }
    }

    #[inline]
    #[track_caller]
    pub fn compare_exchange_weak(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        if exec::in_model() {
            self.compare_exchange(current, new, success, failure)
        } else {
            self.raw
                .compare_exchange_weak(current, new, success, failure)
        }
    }
}

/// Model-checkable `AtomicPtr<T>`.
pub struct AtomicPtr<T> {
    raw: std::sync::atomic::AtomicPtr<T>,
}

impl<T> std::fmt::Debug for AtomicPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AtomicPtr").field(&self.raw).finish()
    }
}

impl<T> Default for AtomicPtr<T> {
    fn default() -> Self {
        Self::new(std::ptr::null_mut())
    }
}

impl<T> AtomicPtr<T> {
    pub const fn new(p: *mut T) -> Self {
        Self {
            raw: std::sync::atomic::AtomicPtr::new(p),
        }
    }

    #[inline]
    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    pub fn into_inner(self) -> *mut T {
        self.raw.into_inner()
    }

    pub fn get_mut(&mut self) -> &mut *mut T {
        self.raw.get_mut()
    }

    #[inline]
    #[track_caller]
    pub fn load(&self, ord: Ordering) -> *mut T {
        match enter(OpKind::Load, self.addr(), Location::caller()) {
            None => self.raw.load(ord),
            Some((ctx, me)) => {
                let v = self.raw.load(Ordering::SeqCst);
                exec::record_load(
                    unsafe { &*ctx },
                    me,
                    self.addr(),
                    ord,
                    v as usize as u64,
                    Location::caller(),
                    "ptr.load",
                );
                v
            }
        }
    }

    #[inline]
    #[track_caller]
    pub fn store(&self, v: *mut T, ord: Ordering) {
        match enter(OpKind::Store, self.addr(), Location::caller()) {
            None => self.raw.store(v, ord),
            Some((ctx, me)) => {
                self.raw.store(v, Ordering::SeqCst);
                exec::record_store(
                    unsafe { &*ctx },
                    me,
                    self.addr(),
                    ord,
                    v as usize as u64,
                    Location::caller(),
                    "ptr.store",
                );
            }
        }
    }

    #[inline]
    #[track_caller]
    pub fn swap(&self, v: *mut T, ord: Ordering) -> *mut T {
        match enter(OpKind::Rmw, self.addr(), Location::caller()) {
            None => self.raw.swap(v, ord),
            Some((ctx, me)) => {
                let old = self.raw.swap(v, Ordering::SeqCst);
                exec::record_rmw(
                    unsafe { &*ctx },
                    me,
                    self.addr(),
                    ord,
                    old as usize as u64,
                    Location::caller(),
                    "ptr.swap",
                );
                old
            }
        }
    }

    #[inline]
    #[track_caller]
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        match enter(OpKind::Rmw, self.addr(), Location::caller()) {
            None => self.raw.compare_exchange(current, new, success, failure),
            Some((ctx, me)) => {
                let r = self
                    .raw
                    .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst);
                match r {
                    Ok(old) => exec::record_rmw(
                        unsafe { &*ctx },
                        me,
                        self.addr(),
                        success,
                        old as usize as u64,
                        Location::caller(),
                        "ptr.cas",
                    ),
                    Err(old) => exec::record_load(
                        unsafe { &*ctx },
                        me,
                        self.addr(),
                        failure,
                        old as usize as u64,
                        Location::caller(),
                        "ptr.cas-fail",
                    ),
                }
                r
            }
        }
    }

    #[inline]
    #[track_caller]
    pub fn compare_exchange_weak(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        if exec::in_model() {
            self.compare_exchange(current, new, success, failure)
        } else {
            self.raw
                .compare_exchange_weak(current, new, success, failure)
        }
    }
}

/// Model-checkable `fence`.
#[inline]
#[track_caller]
pub fn fence(ord: Ordering) {
    match enter(OpKind::Fence, 0, Location::caller()) {
        None => std::sync::atomic::fence(ord),
        Some((ctx, me)) => {
            std::sync::atomic::fence(Ordering::SeqCst);
            exec::record_fence(unsafe { &*ctx }, me, ord, Location::caller());
        }
    }
}

// ---------------------------------------------------------------------------
// Execution-scoped statics
// ---------------------------------------------------------------------------

/// A lazily-initialised static that is *execution-scoped* under the model
/// checker: each model execution gets a fresh instance (so state cannot leak
/// between explored interleavings), while outside the checker it behaves
/// exactly like a `OnceLock` global.
///
/// The initialiser must be step-free: it may construct values (including shim
/// atomics) but must not load/store/CAS through them.
pub struct McStatic<T: Send + Sync + 'static> {
    init: fn() -> T,
    raw: OnceLock<T>,
}

unsafe fn drop_boxed<T>(p: usize) {
    drop(unsafe { Box::from_raw(p as *mut T) });
}

impl<T: Send + Sync + 'static> McStatic<T> {
    pub const fn new(init: fn() -> T) -> Self {
        McStatic {
            init,
            raw: OnceLock::new(),
        }
    }

    pub fn get(&'static self) -> &'static T {
        match exec::current() {
            None => self.raw.get_or_init(self.init),
            Some((ctx, _)) => {
                let ctx = unsafe { &*ctx };
                let key = self as *const Self as usize;
                if let Some(e) = ctx.lock().statics.get(&key) {
                    return unsafe { &*(e.ptr as *const T) };
                }
                // Only the scheduled thread runs, and a step-free initialiser
                // cannot yield control, so this unlock/init/relock sequence
                // cannot double-initialise.
                let v = exec::forbid_steps(|| Box::into_raw(Box::new((self.init)())));
                ctx.lock().statics.insert(
                    key,
                    exec::StaticEntry {
                        ptr: v as usize,
                        drop_fn: drop_boxed::<T>,
                    },
                );
                unsafe { &*v }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Execution-scoped thread-locals
// ---------------------------------------------------------------------------

struct TlsEntry {
    key: usize,
    ptr: usize,
    drop_fn: unsafe fn(usize),
}

thread_local! {
    static MODEL_TLS: RefCell<Vec<TlsEntry>> = const { RefCell::new(Vec::new()) };
}

/// Per-model-thread storage declared via [`crate::mc_thread_local!`]. Outside the
/// checker it forwards to a real `thread_local!`; inside, each model thread
/// gets its own instance whose destructor runs *inside the scheduled region*
/// just before the thread's exit step — so `Drop` impls that perform atomic
/// operations (EBR's `Local`) are themselves schedulable and checked.
pub struct McThreadLocal<T: 'static> {
    init: fn() -> T,
    fallback: FallbackFn<T>,
}

/// Trampoline into the hidden `thread_local!` the macro declares alongside
/// each [`McThreadLocal`], used when no model execution is active.
type FallbackFn<T> = fn(&mut dyn FnMut(&T));

impl<T: 'static> McThreadLocal<T> {
    #[doc(hidden)]
    pub const fn new(init: fn() -> T, fallback: FallbackFn<T>) -> Self {
        McThreadLocal { init, fallback }
    }

    pub fn with<R>(&'static self, f: impl FnOnce(&T) -> R) -> R {
        if exec::in_model() {
            let key = self as *const Self as usize;
            let existing =
                MODEL_TLS.with(|v| v.borrow().iter().find(|e| e.key == key).map(|e| e.ptr));
            let ptr = match existing {
                Some(p) => p,
                None => {
                    // Init outside the borrow: it may recursively touch other
                    // model TLS slots (and may perform scheduled steps).
                    let fresh = Box::into_raw(Box::new((self.init)())) as usize;
                    MODEL_TLS.with(|v| {
                        let mut v = v.borrow_mut();
                        if let Some(e) = v.iter().find(|e| e.key == key) {
                            // Recursive init beat us to it; discard ours.
                            let winner = e.ptr;
                            drop(unsafe { Box::from_raw(fresh as *mut T) });
                            winner
                        } else {
                            v.push(TlsEntry {
                                key,
                                ptr: fresh,
                                drop_fn: drop_boxed::<T>,
                            });
                            fresh
                        }
                    })
                }
            };
            f(unsafe { &*(ptr as *const T) })
        } else {
            let mut res: Option<R> = None;
            let mut once = Some(f);
            (self.fallback)(&mut |v| {
                if let Some(f) = once.take() {
                    res = Some(f(v));
                }
            });
            res.expect("thread-local fallback did not invoke the closure")
        }
    }
}

/// Drop this OS thread's model-TLS values in reverse initialisation order.
/// Called by the model-thread wrapper before the exit step; destructors may
/// perform scheduled operations.
pub(crate) fn drain_model_tls() {
    loop {
        let e = MODEL_TLS.with(|v| v.borrow_mut().pop());
        match e {
            Some(e) => unsafe { (e.drop_fn)(e.ptr) },
            None => break,
        }
    }
}

/// Declare a seam thread-local backed by [`McThreadLocal`]. Usage mirrors
/// `std::thread_local!` with a single static and `.with(|v| ...)` access.
#[macro_export]
macro_rules! mc_thread_local {
    ($(#[$attr:meta])* $vis:vis static $N:ident: $T:ty = $init:expr $(;)?) => {
        $(#[$attr])*
        $vis static $N: $crate::McThreadLocal<$T> = {
            ::std::thread_local! { static __MC_FALLBACK: $T = $init; }
            fn __mc_init() -> $T {
                $init
            }
            fn __mc_fallback(f: &mut dyn FnMut(&$T)) {
                __MC_FALLBACK.with(|v| f(v));
            }
            $crate::McThreadLocal::new(__mc_init, __mc_fallback)
        };
    };
}

// ---------------------------------------------------------------------------
// Model threads
// ---------------------------------------------------------------------------

/// Model-aware replacement for `std::thread`: outside an execution it
/// forwards to real threads; inside, spawned threads join the scheduled set.
pub mod thread {
    use super::*;

    enum Inner<T> {
        Real(std::thread::JoinHandle<T>),
        Model {
            tid: Tid,
            result: Arc<Mutex<Option<T>>>,
        },
    }

    /// Join handle matching the `std::thread::JoinHandle` shape.
    pub struct JoinHandle<T>(Inner<T>);

    impl<T> JoinHandle<T> {
        #[track_caller]
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Inner::Real(h) => h.join(),
                Inner::Model { tid, result } => {
                    let (ctx, me) =
                        exec::current().expect("model JoinHandle joined outside its execution");
                    exec::join_step(unsafe { &*ctx }, me, tid, Location::caller());
                    // A real child panic poisons the execution before the
                    // joiner gets here, so the slot is always filled.
                    let v = result
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("joined model thread left no result");
                    Ok(v)
                }
            }
        }
    }

    #[track_caller]
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match exec::current() {
            None => JoinHandle(Inner::Real(std::thread::spawn(f))),
            Some((ctx_ptr, me)) => {
                let ctx = unsafe { &*ctx_ptr };
                let site = Location::caller();
                // The spawn itself is a scheduling point.
                exec::step(
                    ctx,
                    me,
                    OpDesc {
                        kind: OpKind::Spawn,
                        loc: 0,
                        site,
                    },
                );
                let child_vc = exec::record_spawn(ctx, me, site);
                let result = Arc::new(Mutex::new(None));
                let slot = Arc::clone(&result);
                let (tid, _) = ctx.register_thread(child_vc, site);
                spawn_model_thread(ctx_ptr as usize, tid, site, move || {
                    let v = f();
                    *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                });
                JoinHandle(Inner::Model { tid, result })
            }
        }
    }

    /// Spawn the OS thread backing model thread `tid` (already registered).
    /// Shared by `spawn` above and the root-thread setup in the explorer.
    /// `ctx_addr` is the address of an `ExecCtx` the orchestrator keeps
    /// alive until all model OS threads are joined.
    pub(crate) fn spawn_model_thread(
        ctx_addr: usize,
        tid: Tid,
        site: &'static Location<'static>,
        body: impl FnOnce() + Send + 'static,
    ) {
        let ctx = unsafe { &*(ctx_addr as *const ExecCtx) };
        let parker = {
            let s = ctx.lock();
            s.threads[tid].parker.clone()
        };
        let h = std::thread::Builder::new()
            .name(format!("mc-t{tid}"))
            .spawn(move || {
                let ctx = unsafe { &*(ctx_addr as *const ExecCtx) };
                exec::set_current(ctx, tid);
                // Wait for the scheduler to select our ThreadStart op.
                parker.park();
                let poisoned = ctx.lock().poisoned;
                let mut panic_msg = None;
                if !poisoned {
                    exec::thread_start_perform(ctx, tid, site);
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
                    panic_msg = panic_message(r);
                    // TLS destructors run inside the scheduled region: their
                    // atomic ops (EBR Local drop → flush/collect) are steps.
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        super::drain_model_tls,
                    ));
                    if panic_msg.is_none() {
                        panic_msg = panic_message(r);
                    }
                }
                exec::exit_step(ctx, tid, panic_msg);
                exec::clear_current();
            })
            .expect("failed to spawn model OS thread");
        ctx.os_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(h);
    }

    fn panic_message(r: std::thread::Result<()>) -> Option<String> {
        let payload = match r {
            Ok(()) => return None,
            Err(p) => p,
        };
        if payload.is::<exec::McAbort>() {
            return None;
        }
        let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "model thread panicked with a non-string payload".to_string()
        };
        match exec::take_panic_location() {
            Some(loc) => Some(format!("{msg} (at {loc})")),
            None => Some(msg),
        }
    }
}

/// Read a `u64` knob from the running model's configuration (set via
/// `Model::cfg`). Returns `None` outside a model execution — production code
/// gates behaviour on this so the knobs cost nothing in real builds.
pub fn model_config_u64(key: &str) -> Option<u64> {
    let (ctx, _) = exec::current()?;
    let ctx = unsafe { &*ctx };
    let cfg: Arc<HashMap<String, u64>> = Arc::clone(&ctx.lock().config);
    cfg.get(key).copied()
}
