//! Bounded execution: the admission queue, the shared per-connection
//! writer, and the worker pool.
//!
//! The serving layer's concurrency control lives here. Connection
//! threads stay cheap — they read frames, parse, and answer control ops
//! inline — while every heavy op (`run`, `run_batch`) becomes a [`Job`]
//! pushed through a **bounded** [`Admission`] queue and executed by one
//! of a **fixed** number of worker threads. Two consequences:
//!
//! * engine concurrency is exactly `workers`, not "number of open
//!   sockets" — a connection flood cannot fork a thousand syntheses,
//!   and a worker runs one task at a time (a `run_batch` runs its tasks
//!   one after another on its worker, never on threads of its own);
//! * when the backlog cap is hit, [`Admission::try_push`] fails and the
//!   connection thread sheds the request with a typed `overloaded`
//!   response *immediately* — load shedding is constant-time, never
//!   queued behind the work it is refusing.
//!
//! A job's response goes back through its [`Reply`]. On the line
//! protocol that is the connection's [`ConnWriter`] — a mutex around its
//! write half — so responses leave in **completion order**, which is
//! what makes request pipelining safe: the reader thread keeps pulling
//! frames while workers finish earlier ones, and the `id` echoed in each
//! response is the client's correlation key. On the HTTP facade it is a
//! channel to the connection thread, which waits for its one request's
//! response and writes it.
//!
//! Shutdown closes the queue: [`Admission::close`] drops every queued
//! job — and with it the job's reply sender, so a waiting HTTP thread's
//! `recv` ends at once — refuses every later push, and wakes the
//! workers, whose [`Admission::pop`] then returns `None`.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use serde_json::Value;

use crate::protocol::Response;
use crate::{relock, HeavyOp, Server, Shared};

/// The write half of one connection, shared between its reader thread
/// (inline responses) and the worker pool (heavy-op responses). The
/// mutex scope is one full response line, so lines never interleave.
pub(crate) struct ConnWriter {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl ConnWriter {
    pub(crate) fn new(writer: Box<dyn Write + Send>) -> Self {
        ConnWriter {
            writer: Mutex::new(writer),
        }
    }

    /// Writes one response line (newline appended) atomically w.r.t.
    /// other lines on this connection.
    pub(crate) fn write_line(&self, line: &str) -> io::Result<()> {
        let mut w = relock(self.writer.lock());
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    }
}

/// Where an admitted job's response goes.
pub(crate) enum Reply {
    /// A line connection's shared write half: the worker writes.
    Line(Arc<ConnWriter>),
    /// The HTTP connection thread waiting for this response: it writes.
    Http(Sender<Response>),
}

impl Reply {
    fn deliver(self, shared: &Shared, response: Response) {
        // A failed write or a departed receiver means the client is
        // gone; the job's work (and any cache fills) remains valid.
        match self {
            Reply::Line(conn) => {
                let _ = shared.write_counted(|| conn.write_line(&response.envelope));
            }
            Reply::Http(waiting) => {
                let _ = waiting.send(response);
            }
        }
    }
}

/// One admitted heavy op: the parsed request, its echo id, and where
/// to answer.
pub(crate) struct Job {
    pub(crate) id: Value,
    pub(crate) op: HeavyOp,
    pub(crate) reply: Reply,
}

/// The bounded MPMC admission queue feeding the worker pool.
pub(crate) struct Admission {
    queue: Mutex<Queue>,
    capacity: usize,
    ready: Condvar,
}

/// The queued jobs, and whether [`Admission::close`] has run.
struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl Admission {
    pub(crate) fn new(capacity: usize) -> Self {
        Admission {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            ready: Condvar::new(),
        }
    }

    /// The backlog cap.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits a job unless the backlog is full or the queue is closed;
    /// `false` = shed it.
    pub(crate) fn try_push(&self, job: Job) -> bool {
        let mut q = relock(self.queue.lock());
        if q.closed || q.jobs.len() >= self.capacity {
            return false;
        }
        q.jobs.push_back(job);
        self.ready.notify_one();
        true
    }

    /// Blocks until a job is available; `None` once the queue is closed.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut q = relock(self.queue.lock());
        loop {
            if q.closed {
                return None;
            }
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            q = relock(self.ready.wait(q));
        }
    }

    /// Closes the queue (shutdown path): drops the queued jobs and their
    /// reply senders, refuses every later push, and wakes every blocked
    /// worker.
    pub(crate) fn close(&self) {
        let mut q = relock(self.queue.lock());
        q.closed = true;
        q.jobs.clear();
        self.ready.notify_all();
    }

    /// Current queue depth (diagnostics).
    pub(crate) fn depth(&self) -> usize {
        relock(self.queue.lock()).jobs.len()
    }
}

/// Spawns the fixed worker pool: `workers` threads, each looping
/// pop → execute → respond on the daemon's one admission queue until it
/// closes. Any idle worker takes the oldest job, whichever shard its
/// task runs on.
pub(crate) fn spawn_workers(shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    (0..shared.workers)
        .map(|_| {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                let server = Server {
                    shared: Arc::clone(&shared),
                };
                while let Some(job) = shared.queue.pop() {
                    let outcome = server.execute_heavy(job.op);
                    job.reply
                        .deliver(&shared, server.render_outcome(job.id, outcome));
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn job(reply: Reply) -> Job {
        Job {
            id: Value::Null,
            op: HeavyOp::noop_for_tests(),
            reply,
        }
    }

    fn dummy_job() -> Job {
        job(Reply::Line(Arc::new(ConnWriter::new(Box::new(
            std::io::sink(),
        )))))
    }

    #[test]
    fn admission_sheds_beyond_capacity() {
        let a = Admission::new(2);
        assert!(a.try_push(dummy_job()));
        assert!(a.try_push(dummy_job()));
        assert!(!a.try_push(dummy_job()), "third push must shed");
        assert_eq!(a.depth(), 2);
        assert!(a.pop().is_some());
        assert!(a.try_push(dummy_job()), "pop frees a slot");
    }

    #[test]
    fn close_drops_queued_jobs_and_refuses_new_ones() {
        let a = Admission::new(2);
        let (reply_to, replies) = mpsc::channel();
        assert!(a.try_push(job(Reply::Http(reply_to))));
        a.close();
        assert!(a.pop().is_none());
        assert!(!a.try_push(dummy_job()), "a closed queue admits nothing");
        assert_eq!(a.depth(), 0);
        // The queued HTTP job's sender went with it: its waiting
        // connection thread gets an error at once, with no timeout.
        assert!(matches!(
            replies.try_recv(),
            Err(mpsc::TryRecvError::Disconnected)
        ));
    }

    #[test]
    fn close_wakes_a_blocked_pop() {
        let a = Arc::new(Admission::new(1));
        let (popped_tx, popped) = mpsc::channel();
        let waiter = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let _ = popped_tx.send(a.pop().is_none());
            })
        };
        // Whether the worker is already parked or not, close ends its
        // wait: `pop` re-checks `closed` under the lock it waits on.
        a.close();
        assert_eq!(popped.recv(), Ok(true));
        waiter.join().expect("the waiting worker returned");
    }

    #[test]
    fn conn_writer_serializes_whole_lines() {
        let w = ConnWriter::new(Box::new(std::io::sink()));
        assert!(w.write_line("hello").is_ok());
    }
}
