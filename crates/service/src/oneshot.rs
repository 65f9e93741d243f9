//! Minimal std-only future machinery: a oneshot completion channel and a
//! thread-parking `block_on`.
//!
//! No async runtime exists in this offline workspace (the same constraint
//! that produced the `criterion`/`proptest` shims), so the service
//! hand-rolls the two pieces it actually needs:
//!
//! * [`Completion`] — the receiving half of a oneshot channel, as a
//!   standard [`Future`]. A core worker fulfils it with the operation's
//!   [`Reply`](crate::Reply); if the sending half is dropped unfulfilled
//!   (service torn down with the request still queued), the future resolves
//!   to [`ServiceError::Disconnected`] instead of hanging forever.
//! * [`block_on`] — drives any future to completion on the current thread,
//!   parking between polls. The waker unparks the thread, so a completion
//!   delivered from a core worker costs one `unpark`, not a spin loop.
//!
//! The channel is a mutex around a four-state enum. That is deliberate: the
//! lock is uncontended (one producer, one consumer, each touching it once
//! or twice per operation), and the service amortizes every per-operation
//! cost at the batch layer, not here.

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use crate::ServiceError;

enum State<T> {
    /// Not yet fulfilled; holds the waker of the most recent poll.
    Pending(Option<Waker>),
    /// Fulfilled, value not yet claimed by a poll.
    Done(T),
    /// Sender dropped without fulfilling.
    Closed,
    /// A poll already returned `Ready`; terminal.
    Finished,
}

struct Channel<T> {
    state: Mutex<State<T>>,
}

/// Create a connected sender/future pair.
pub(crate) fn completion<T>() -> (CompletionSender<T>, Completion<T>) {
    let ch = Arc::new(Channel {
        state: Mutex::new(State::Pending(None)),
    });
    (
        CompletionSender {
            ch: Arc::clone(&ch),
            sent: false,
        },
        Completion { ch },
    )
}

/// Fulfilling half of a oneshot completion; owned by the request while it
/// sits in a submission ring, consumed by the core worker that executes it.
pub(crate) struct CompletionSender<T> {
    ch: Arc<Channel<T>>,
    sent: bool,
}

impl<T> CompletionSender<T> {
    /// Fulfil the completion and wake its awaiter (if any).
    pub(crate) fn send(mut self, value: T) {
        self.sent = true;
        let waker = {
            let mut st = self.ch.state.lock().unwrap();
            match std::mem::replace(&mut *st, State::Done(value)) {
                State::Pending(w) => w,
                // The receiving future was dropped or already finished;
                // restore whatever was there and discard the value.
                other => {
                    *st = other;
                    None
                }
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Drop for CompletionSender<T> {
    fn drop(&mut self) {
        if self.sent {
            return;
        }
        // Dropped unfulfilled (service teardown with the request still
        // queued): fail the future rather than stranding its awaiter.
        let waker = {
            let mut st = self.ch.state.lock().unwrap();
            match std::mem::replace(&mut *st, State::Closed) {
                State::Pending(w) => w,
                other => {
                    *st = other;
                    None
                }
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// The receiving half of a oneshot completion: a [`Future`] resolving to
/// the operation's result, or [`ServiceError::Disconnected`] if the service
/// was torn down before executing it.
#[must_use = "a Completion does nothing until awaited (or .wait()ed)"]
pub struct Completion<T> {
    ch: Arc<Channel<T>>,
}

impl<T> std::fmt::Debug for Completion<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.ch.state.lock().unwrap();
        let name = match &*st {
            State::Pending(_) => "pending",
            State::Done(_) => "done",
            State::Closed => "closed",
            State::Finished => "finished",
        };
        write!(f, "Completion({name})")
    }
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
        let mut st = self.ch.state.lock().unwrap();
        match std::mem::replace(&mut *st, State::Finished) {
            State::Done(v) => Some(Ok(v)),
            State::Closed => Some(Err(ServiceError::Disconnected)),
            other => {
                *st = other;
                None
            }
        }
    }
}

impl<T> Future for Completion<T> {
    type Output = Result<T, ServiceError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.ch.state.lock().unwrap();
        match std::mem::replace(&mut *st, State::Finished) {
            State::Done(v) => Poll::Ready(Ok(v)),
            State::Closed => Poll::Ready(Err(ServiceError::Disconnected)),
            State::Pending(_) => {
                *st = State::Pending(Some(cx.waker().clone()));
                Poll::Pending
            }
            State::Finished => panic!("Completion polled after it returned Ready"),
        }
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
