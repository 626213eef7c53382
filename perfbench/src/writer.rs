//! The single writer connection: registers cold users, streams each one's
//! donor history as `POST /ingest` slices at a fixed rate, and after every
//! slice polls `/recommend` until the user's answer changes.
//!
//! One connection, one request in flight: the server sees the writer's
//! mutations in exactly the order they were sent, so an in-process engine
//! replaying [`Writes::events`] must end in the same state.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use imcat_obs::Json;
use imcat_serve::Interaction;

use crate::stats::us;
use crate::wire::{recommend_target, Client, Outcome, Tally};

/// Interactions per `POST /ingest`: a donor streams in 4 to 8 slices.
pub const SLICE: usize = 2;

/// Visibility polls per slice before the slice counts as never visible.
const MAX_POLLS: usize = 2000;

/// One cold user to stream: a warm donor's history split in two halves.
#[derive(Clone, Debug)]
pub struct Script {
    /// The first half, ingested live.
    pub seen: Vec<u32>,
    /// The second half, the recall holdout.
    pub holdout: Vec<u32>,
}

/// Train-item counts a donor may have: enough for two halves worth
/// recalling against, few enough that a cold user streams in a handful of
/// slices.
pub const DONOR_ITEMS: std::ops::RangeInclusive<usize> = 16..=32;

/// Cold users cloned from the warmest donors: users whose train items (as
/// the artifact masks them) number within [`DONOR_ITEMS`], most items first,
/// each split into a live half and a held-out half as the stream bench
/// splits them.
pub fn scripts(masks: &[Vec<u32>], max: usize) -> Vec<Script> {
    let mut donors: Vec<usize> =
        (0..masks.len()).filter(|&u| DONOR_ITEMS.contains(&masks[u].len())).collect();
    donors.sort_by_key(|&u| std::cmp::Reverse(masks[u].len()));
    donors
        .into_iter()
        .take(max)
        .map(|u| {
            let (seen, holdout) = masks[u].split_at(masks[u].len() / 2);
            Script { seen: seen.to_vec(), holdout: holdout.to_vec() }
        })
        .collect()
}

/// A mutation the writer got acknowledged, in send order.
#[derive(Clone, Debug)]
pub enum Event {
    /// `POST /users` answered with this id.
    RegisterUser(u32),
    /// `POST /ingest` of these interactions, all accepted.
    Ingest(Vec<Interaction>),
}

/// A cold user the writer registered.
#[derive(Clone, Debug)]
pub struct ColdUser {
    /// Id the server assigned.
    pub id: u32,
    /// Index into the scripts.
    pub script: usize,
    /// Whether every slice of the script was ingested.
    pub complete: bool,
}

/// Everything the writer did.
#[derive(Default)]
pub struct Writes {
    /// Request accounting (registrations, ingests and visibility polls).
    pub tally: Tally,
    /// `POST /ingest` round trips, µs.
    pub ack_us: Vec<f64>,
    /// From sending an ingest to the first answer that differs from the
    /// user's answer before it, µs.
    pub visible_us: Vec<f64>,
    /// Slices whose effect never became visible.
    pub invisible: u64,
    /// Acknowledged mutations in send order.
    pub events: Vec<Event>,
    /// Registered cold users.
    pub users: Vec<ColdUser>,
}

fn ingest_body(user: u32, items: &[u32]) -> String {
    items.iter().map(|i| format!("{user} {i}\n")).collect()
}

/// A cold user part-way through their script.
struct Current {
    id: u32,
    script: usize,
    /// Next slice to ingest.
    slice: usize,
    /// The user's answer before that slice.
    before: String,
}

/// The writer: its connection and its place in the scripts, kept across
/// the windows it runs in.
pub struct Writer<'a> {
    client: Client,
    scripts: &'a [Script],
    k: usize,
    next: usize,
    current: Option<Current>,
    /// What it has done so far.
    pub out: Writes,
}

impl<'a> Writer<'a> {
    /// Connects the writer.
    pub fn connect(addr: SocketAddr, scripts: &'a [Script], k: usize) -> std::io::Result<Self> {
        let client = Client::connect(addr)?;
        Ok(Self { client, scripts, k, next: 0, current: None, out: Writes::default() })
    }

    /// Closes the connection, so it does not sit idle into the server's
    /// request deadline, and hands over what the writer did.
    pub fn finish(&mut self) -> Writes {
        self.client.close();
        std::mem::take(&mut self.out)
    }

    /// Registers the next script's cold user and reads their first answer.
    fn register(&mut self, cold: &Mutex<Vec<u32>>) {
        let script = self.next;
        self.next += 1;
        let outcome = self.client.post("/users", "");
        self.out.tally.record(&outcome);
        let Outcome::Ok(body) = outcome else { return };
        let Some(id) = Json::parse(&body).ok().and_then(|j| j.get("user").and_then(Json::as_f64))
        else {
            self.out.tally.failed += 1;
            return;
        };
        let id = id as u32;
        self.out.events.push(Event::RegisterUser(id));
        self.out.users.push(ColdUser { id, script, complete: false });
        cold.lock().expect("cold-id list poisoned").push(id);
        let outcome = self.client.get(&recommend_target(id, self.k));
        self.out.tally.record(&outcome);
        if let Outcome::Ok(before) = outcome {
            self.current = Some(Current { id, script, slice: 0, before });
        }
    }

    /// Streams slices at `rate` per second, registering users as their
    /// scripts come up, until `stop` is raised or the scripts run out. A
    /// user cut off by `stop` resumes at the next call.
    pub fn run(&mut self, rate: f64, stop: &AtomicBool, cold: &Mutex<Vec<u32>>) {
        let start = Instant::now();
        let mut slices = 0u64;
        loop {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let Some(cur) = self.current.as_mut() else {
                if self.next == self.scripts.len() {
                    return;
                }
                self.register(cold);
                continue;
            };
            let Some(slice) = self.scripts[cur.script].seen.chunks(SLICE).nth(cur.slice) else {
                let id = cur.id;
                self.out
                    .users
                    .iter_mut()
                    .rev()
                    .find(|u| u.id == id)
                    .expect("registered")
                    .complete = true;
                self.current = None;
                continue;
            };
            let due = start + Duration::from_secs_f64(slices as f64 / rate);
            while Instant::now() < due {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep((due - Instant::now()).min(Duration::from_millis(1)));
            }
            slices += 1;
            let t0 = Instant::now();
            let outcome = self.client.post("/ingest", &ingest_body(cur.id, slice));
            let acked = t0.elapsed();
            self.out.tally.record(&outcome);
            if !matches!(outcome, Outcome::Ok(_)) {
                // The user stays incomplete; move on to the next script.
                self.current = None;
                continue;
            }
            self.out.ack_us.push(us(acked));
            self.out.events.push(Event::Ingest(
                slice.iter().map(|&item| Interaction { user: cur.id, item }).collect(),
            ));
            let target = recommend_target(cur.id, self.k);
            let mut visible = false;
            for _ in 0..MAX_POLLS {
                let outcome = self.client.get(&target);
                self.out.tally.record(&outcome);
                if let Outcome::Ok(now) = outcome {
                    if now != cur.before {
                        self.out.visible_us.push(us(t0.elapsed()));
                        cur.before = now;
                        visible = true;
                        break;
                    }
                }
            }
            if !visible {
                self.out.invisible += 1;
            }
            cur.slice += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_clone_donors_in_halves_most_items_first() {
        let masks: Vec<Vec<u32>> =
            [15, 16, 32, 33, 20].iter().map(|&n| (0..n as u32).collect()).collect();
        let s = scripts(&masks, 8);
        assert_eq!(s.len(), 3, "only users with 16 to 32 items are donors");
        assert_eq!((s[0].seen.len(), s[0].holdout.len()), (16, 16));
        assert_eq!(s[1].seen, (0..10).collect::<Vec<u32>>());
        assert_eq!(s[1].holdout, (10..20).collect::<Vec<u32>>());
        assert_eq!(s[2].seen.len(), 8);
        assert_eq!(scripts(&masks, 1).len(), 1);
    }

    #[test]
    fn ingest_body_is_one_line_per_interaction() {
        assert_eq!(ingest_body(7, &[1, 22]), "7 1\n7 22\n");
    }
}
