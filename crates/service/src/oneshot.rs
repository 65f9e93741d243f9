//! Minimal std-only future machinery: the request completion and a
//! thread-parking `block_on`.
//!
//! No async runtime exists in this offline workspace (the same constraint
//! that produced the `criterion`/`proptest` shims), so the service
//! hand-rolls the two pieces it actually needs:
//!
//! * [`Completion`] — the receiving half of a [`csds_sync::oneshot`]
//!   channel, as a standard [`Future`]. A core worker fulfils it with the
//!   operation's [`Reply`](crate::Reply); if the sending half is dropped
//!   unfulfilled (service torn down with the request still queued), the
//!   future resolves to [`ServiceError::Disconnected`] instead of hanging
//!   forever.
//! * [`block_on`] — drives any future to completion on the current thread,
//!   parking between polls. The waker unparks the thread, so a completion
//!   delivered from a core worker costs one `unpark`, not a spin loop.
//!
//! The channel is lock-free — one cell holding an atomic state word beside
//! the value and the waker, one CAS by the worker per reply — and lives in
//! `csds_sync` next to the ring, where `csds_modelcheck` and Miri run it.
//! It has no reference count: the side that touches the cell last frees it,
//! into that thread's pool of cells, so a client that keeps submitting
//! reuses the cells of the replies it has taken instead of calling the
//! allocator. A `Completion` dropped unawaited leaves its cell to the
//! worker, which frees it when it replies. Together the ring slot and the
//! cell are the two cache lines a request moves between a client and a
//! worker; both are line-aligned, so neither shares a line with the
//! request before or after it.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use csds_sync::oneshot::{channel, Closed, Receiver, Sender};

use crate::ServiceError;

/// Create a connected sender/future pair. The sender is owned by the request
/// while it sits in a submission ring and consumed by the core worker that
/// executes it.
pub(crate) fn completion<T>() -> (Sender<T>, Completion<T>) {
    let (tx, rx) = channel();
    (tx, Completion { rx })
}

/// The receiving half of a oneshot completion: a [`Future`] resolving to
/// the operation's result, or [`ServiceError::Disconnected`] if the service
/// was torn down before executing it.
#[must_use = "a Completion does nothing until awaited (or .wait()ed)"]
pub struct Completion<T> {
    rx: Receiver<T>,
}

impl<T> std::fmt::Debug for Completion<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Completion({:?})", self.rx)
    }
}

fn disconnected(_: Closed) -> ServiceError {
    ServiceError::Disconnected
}

impl<T> Completion<T> {
    /// Block the current thread until the completion resolves. A reply that
    /// is already there is taken directly; only a pending one pays for
    /// [`block_on`]'s waker (an `Arc` and a thread-handle clone).
    pub fn wait(mut self) -> Result<T, ServiceError> {
        match self.try_take() {
            Some(r) => r,
            None => block_on(self),
        }
    }

    /// Non-blocking probe: `Some` once resolved (consumes the result).
    pub fn try_take(&mut self) -> Option<Result<T, ServiceError>> {
        self.rx.try_recv().map(|r| r.map_err(disconnected))
    }
}

impl<T> Future for Completion<T> {
    type Output = Result<T, ServiceError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.rx)
            .poll(cx)
            .map(|r| r.map_err(disconnected))
    }
}

/// Thread-parking waker for [`block_on`].
struct ThreadWaker(std::thread::Thread);

impl std::task::Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Drive `fut` to completion on the current thread, parking between polls.
///
/// This is the examples'/tests' executor: real deployments would poll
/// [`Completion`]s from their own event loop, but a closed-loop caller can
/// simply `block_on(client.get(k))`. Parking tolerates spurious wakeups
/// (the loop re-polls), and wakes delivered before the park consume the
/// park token, so the wakeup cannot be lost.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => std::thread::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_before_poll() {
        let (tx, rx) = completion::<u32>();
        tx.send(7);
        assert_eq!(block_on(rx), Ok(7));
    }

    #[test]
    fn completes_across_threads_while_parked() {
        let (tx, rx) = completion::<&'static str>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.send("done");
        });
        assert_eq!(block_on(rx), Ok("done"));
        sender.join().unwrap();
    }

    #[test]
    fn dropped_sender_resolves_disconnected() {
        let (tx, rx) = completion::<u32>();
        drop(tx);
        assert_eq!(block_on(rx), Err(ServiceError::Disconnected));
    }

    #[test]
    fn try_take_probes_without_blocking() {
        let (tx, mut rx) = completion::<u32>();
        assert_eq!(rx.try_take(), None);
        tx.send(5);
        assert_eq!(rx.try_take(), Some(Ok(5)));
    }

    #[test]
    fn block_on_plain_future() {
        assert_eq!(block_on(async { 40 + 2 }), 42);
    }
}
