//! The resident set: the requests a [`crate::scheduler::Scheduler`] runs,
//! and the step clock that says when each one next needs a visit.
//!
//! [`Residents`] is bookkeeping only: it holds no ledger — the scheduler asks
//! the [`crate::ledger::KvBudget`] and passes in the headroom ("room", in
//! tokens) it granted — and decides nothing (what to admit, which victim,
//! swap or recompute stay in the scheduler). Every decodable resident gains
//! one token a decode step, so the set keeps one counter, `steps`, and a
//! resident's stored `generated` / `prefilled` date from its last *sync*; two
//! step columns say when it next needs a visit: `page_end` (its pages fill)
//! and `done_at` (its output is complete). Make-room reads a calendar keyed
//! by page end, not the batch. The counters and the calendar are audited
//! against full scans in debug builds, and the whole set is held to a naive
//! model — one `Vec` in admission order, every count explicit — by this
//! module's tests. The per-tick verbs are `#[inline]`: the generic tick that
//! calls them is compiled outside this module.

use std::ops::Range;

use crate::kv_cache::PAGE_TOKENS;
use crate::ledger::KvHandle;
use crate::request::{Request, RequestId};

/// A decode-step count, below [`NEVER`] (checked where written).
pub(crate) type Step = u32;

/// The `page_end` and `done_at` of a resident not decoding (and a vacant
/// seat's `page_end`): a step never reached.
pub(crate) const NEVER: Step = Step::MAX;

/// Days in make-room's calendar: one more than the farthest an on-demand
/// page end lies ahead, so such a booking is due the first time its day
/// comes round; a farther one waits out whole laps.
const CALENDAR_DAYS: usize = PAGE_TOKENS + 1;

/// The calendar day of `step`.
pub(crate) fn day(step: Step) -> usize {
    usize::try_from(step).expect("a step fits usize") % CALENDAR_DAYS
}

/// Brings `r` up to `steps` decode steps: a decodable resident gains the
/// tokens it decoded since it was last written, which `done_at` tells.
#[inline]
fn catch_up(r: &mut Request, done_at: Step, steps: Step) {
    if r.prefill_remaining() == 0 {
        let owed = done_at.checked_sub(steps).expect("a resident decoded past its output length");
        let owed = usize::try_from(owed).expect("a step count fits usize");
        let behind = r.remaining().checked_sub(owed).expect("a resident ran ahead of the step count");
        r.decoded(behind);
    }
}

/// A decodable resident's entry in make-room's calendar, 12 B: its
/// residency's stamp (admission order, and the check that the seat still
/// holds it), its seat and its `done_at`, fixed while it decodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Booking {
    stamp: u32,
    seat: u32,
    done_at: Step,
}

/// The running batch and its step clock. A resident sits at its *seat* (its
/// ledger handle's index); admission order is a column of seats.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Residents {
    /// Each resident's request, at its seat: retirement and eviction never
    /// move one.
    requests: Vec<Request>,
    /// Per seat: the step at which the resident's pages fill (its headroom
    /// is `page_end − steps`). Read by the scheduler's tests.
    pub(crate) page_end: Vec<Step>,
    /// Per seat: the seating's stamp, from `seated`.
    stamps: Vec<u32>,
    /// The residents' seats in admission order; with `done_at`, all a
    /// retirement moves. Columns, not `Request` fields: a request's `Debug`
    /// text (hashed into run digests) stays free of budget and step count.
    seats: Vec<u32>,
    /// Beside `seats`: the step at which a resident retires — its true
    /// `generated` is `output_len − (done_at − steps)`.
    done_at: Vec<Step>,
    /// Decode steps taken. Read by the scheduler's tests.
    pub(crate) steps: Step,
    /// No `done_at` is below this, so the decode step scans that column only
    /// on the steps that reach it (0, a loose bound, in a new set).
    next_done: Step,
    /// Seatings so far: the next stamp.
    seated: u32,
    /// Make-room's calendar queue (Brown, "Calendar queues", CACM 1988): a
    /// ring of days of [`Booking`]s, one per decodable resident that fills
    /// its pages before it retires, filed on the day of its page end when it
    /// arms and at each growth. A booking whose seat empties or is re-seated
    /// is stale, dropped when its day comes. Read by the scheduler's tests.
    pub(crate) calendar: [Vec<Booking>; CALENDAR_DAYS],
    /// This step's due bookings, in admission order.
    due: Vec<Booking>,
    /// Seats armed without a first token, for the next decode step to stamp.
    fresh: Vec<usize>,
    /// The decode step's retirees, as batch indices (ascending).
    retiring: Vec<usize>,
    /// Unarmed residents: the prefilling, once every decodable one is armed.
    prefilling: usize,
    /// Σ `prefilled` over the decodable residents.
    decode_tokens: usize,
}

impl Residents {
    /// Residents seated.
    pub(crate) fn len(&self) -> usize {
        self.seats.len()
    }

    /// No resident seated?
    pub(crate) fn is_empty(&self) -> bool {
        self.seats.is_empty()
    }

    /// Residents that decode on the next step (unaudited).
    pub(crate) fn decodable(&self) -> usize {
        self.seats.len() - self.prefilling
    }

    /// Residents still in prefill, audited against the scan in debug builds.
    pub(crate) fn prefilling(&self) -> usize {
        debug_assert_eq!(
            self.prefilling,
            self.iter().filter(|(_, r)| r.prefill_remaining() > 0).count(),
            "prefilling counter drifted from the ground-truth scan"
        );
        self.prefilling
    }

    /// `(count, Σ prefilled)` of the residents that decode on the next step,
    /// audited like [`Residents::prefilling`].
    pub(crate) fn decode_totals(&self) -> (usize, usize) {
        debug_assert_eq!(
            self.decode_tokens,
            self.running().filter(|r| r.prefill_remaining() == 0).map(|r| r.prefilled()).sum::<usize>(),
            "decodable-token counter drifted from the ground-truth scan"
        );
        (self.seats.len() - self.prefilling(), self.decode_tokens)
    }

    /// The residents in admission order, each synced as it is yielded.
    pub(crate) fn running(&self) -> impl ExactSizeIterator<Item = Request> + '_ {
        let steps = self.steps;
        self.seats.iter().zip(&self.done_at).map(move |(&seat, &done_at)| {
            let mut r = self.requests[seat as usize];
            catch_up(&mut r, done_at, steps);
            r
        })
    }

    /// The residents in admission order with their handles, unsynced.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (KvHandle, &Request)> {
        self.seats.iter().map(|&seat| (KvHandle(seat as usize), &self.requests[seat as usize]))
    }

    /// Each resident in admission order as the ledger should hold it: its
    /// handle, its synced request and, once it decodes, its headroom.
    pub(crate) fn mirror(&self) -> impl Iterator<Item = (KvHandle, Request, Option<usize>)> + '_ {
        assert_eq!(self.done_at.len(), self.seats.len(), "step column out of step");
        self.running().zip(&self.seats).map(|(r, &seat)| {
            let end = self.page_end[seat as usize];
            let room = (r.prefill_remaining() == 0).then(|| {
                let room = end.checked_sub(self.steps).expect("a resident decoded past its pages");
                usize::try_from(room).expect("a step count fits usize")
            });
            assert!(room.is_some() || end == NEVER, "request {:?}: a page end before it decodes", r.id);
            (KvHandle(seat as usize), r, room)
        })
    }

    /// Seats `req` at `handle`'s seat, last in admission order, unarmed;
    /// returns its index.
    #[inline]
    pub(crate) fn seat(&mut self, req: Request, handle: KvHandle) -> usize {
        let (seat, seats) = (handle.0, self.requests.len().max(handle.0 + 1));
        self.requests.resize(seats, req);
        self.page_end.resize(seats, NEVER);
        self.stamps.resize(seats, 0);
        self.requests[seat] = req;
        self.stamps[seat] = self.seated;
        self.seated = self.seated.checked_add(1).expect("a resident set's seatings fit u32");
        self.done_at.push(NEVER);
        self.seats.push(u32::try_from(seat).expect("a seat index fits u32"));
        self.prefilling += 1;
        self.seats.len() - 1
    }

    /// Resident `i`'s handle and prompt tokens if its prefill is complete
    /// but it is not armed: what the ledger must cover before [`Residents::arm`].
    pub(crate) fn unarmed(&self, i: usize) -> Option<(KvHandle, usize)> {
        let r = &self.requests[self.seats[i] as usize];
        (self.done_at[i] == NEVER && r.prefill_remaining() == 0)
            .then(|| (KvHandle(self.seats[i] as usize), r.prefill_len()))
    }

    /// Starts resident `i`'s step clock: its pages fill after `room`, the
    /// headroom the ledger granted over its prompt, its output after its
    /// remaining tokens.
    #[inline]
    pub(crate) fn arm(&mut self, i: usize, room: usize) {
        debug_assert!(self.unarmed(i).is_some(), "armed a resident that prefills or decodes");
        let seat = self.seats[i];
        let r = &self.requests[seat as usize];
        let (prefilled, remaining, fresh) = (r.prefilled(), r.remaining(), r.first_token_s().is_none());
        self.prefilling = self.prefilling.checked_sub(1).expect("prefilling counter underflow at arming");
        self.decode_tokens += prefilled;
        let done_at = self.step_after(remaining);
        self.done_at[i] = done_at;
        self.next_done = self.next_done.min(done_at);
        self.book(seat, self.step_after(room), done_at);
        if fresh {
            self.fresh.push(seat as usize);
        }
    }

    /// The residents that may be prefilling: from the oldest unarmed one,
    /// found from the back (residents are seated there), to the end.
    pub(crate) fn prefill_tail(&self) -> Range<usize> {
        let mut unseen = self.prefilling;
        if unseen == 0 {
            return 0..0; // pure-decode tick: no resident to walk for
        }
        let oldest = self.done_at.iter().rposition(|&done| {
            unseen -= usize::from(done == NEVER);
            unseen == 0
        });
        oldest.expect("prefilling counter drifted from `done_at`")..self.seats.len()
    }

    /// Advances resident `i`, if unarmed, by at most `chunk` prompt tokens,
    /// returned as the slice `(id, new, past)`.
    #[inline]
    pub(crate) fn prefill(&mut self, i: usize, chunk: usize) -> Option<(RequestId, usize, usize)> {
        if self.done_at[i] != NEVER {
            return None;
        }
        let r = &mut self.requests[self.seats[i] as usize];
        let (take, past) = (r.prefill_remaining().min(chunk), r.prefilled());
        r.set_prefilled(past + take);
        Some((r.id, take, past))
    }

    /// Lists this step's due bookings in admission order and returns their
    /// count, dropping the day's stale ones (vacant seat or other stamp) and
    /// keeping those a lap or more ahead. In debug builds the list is held
    /// to the scan it replaces.
    pub(crate) fn take_due(&mut self) -> usize {
        let Self { calendar, due, page_end, stamps, steps, .. } = self;
        let (steps, today) = (*steps, day(*steps));
        due.clear();
        calendar[today].retain(|&booking| {
            let seat = booking.seat as usize;
            let end = page_end[seat];
            if stamps[seat] != booking.stamp || end == NEVER {
                return false; // stale
            }
            debug_assert_eq!(day(end), today, "a booking off its page end's day");
            if end == steps {
                due.push(booking);
                return false;
            }
            true // a later lap
        });
        due.sort_unstable_by_key(|booking| booking.stamp);
        debug_assert!(
            self.due.iter().map(|b| (b.seat, b.done_at)).eq(self
                .seats
                .iter()
                .zip(&self.done_at)
                .filter(|(&seat, _)| self.page_end[seat as usize] == steps)
                .map(|(&seat, &done_at)| (seat, done_at))),
            "make-room's calendar drifted from the page-end scan"
        );
        self.due.len()
    }

    /// The `k`th due resident's handle, id and tokens held, synced — `None`
    /// if evicted since [`Residents::take_due`] listed it.
    #[inline]
    pub(crate) fn due(&mut self, k: usize) -> Option<(KvHandle, RequestId, usize)> {
        let due = self.due[k];
        let seat = due.seat as usize;
        if self.page_end[seat] != self.steps {
            return None;
        }
        let r = &mut self.requests[seat];
        catch_up(r, due.done_at, self.steps);
        Some((KvHandle(seat), r.id, r.prefill_len()))
    }

    /// The `k`th due resident was granted its next token, `room` the headroom
    /// after it: its page end moves past the page that token opens, less the
    /// token, which this step's decode spends.
    #[inline]
    pub(crate) fn grow(&mut self, k: usize, room: usize) {
        let due = self.due[k];
        self.book(due.seat, self.step_after(room + 1), due.done_at);
    }

    /// Removes resident `i`, synced, and returns its request and handle.
    #[inline]
    pub(crate) fn evict(&mut self, i: usize) -> (Request, KvHandle) {
        catch_up(&mut self.requests[self.seats[i] as usize], self.done_at[i], self.steps);
        let handle = KvHandle(self.seats.remove(i) as usize);
        let req = self.requests[handle.0];
        self.page_end[handle.0] = NEVER;
        // The newest victim is usually the newest fresh seat, so look from the back.
        if let Some(k) = self.fresh.iter().rposition(|&seat| seat == handle.0) {
            self.fresh.swap_remove(k);
        }
        if self.done_at.remove(i) == NEVER {
            self.prefilling =
                self.prefilling.checked_sub(1).expect("prefilling counter underflow at eviction");
        } else {
            self.decode_tokens = self
                .decode_tokens
                .checked_sub(req.prefilled())
                .expect("decodable-token counter underflow at eviction");
        }
        (req, handle)
    }

    /// One decode step at `clock`, returning the decodable count. Only the
    /// fresh (stamped) and, on a step reaching `next_done`, the retirees are
    /// written: each, synced, is shown to `retire` with its handle in
    /// admission order and leaves its seat; the survivors move down by runs.
    #[inline]
    pub(crate) fn decode(&mut self, clock: f64, mut retire: impl FnMut(&Request, KvHandle)) -> usize {
        let decodable = self.decodable();
        assert!(decodable > 0, "decode_step with no decodable resident");
        debug_assert!(
            !self.page_end.iter().any(|&end| end <= self.steps),
            "a resident reached decode with its pages full"
        );
        self.steps = self.step_after(1);
        self.decode_tokens += decodable;
        let steps = self.steps;
        for seat in self.fresh.drain(..) {
            self.requests[seat].stamp_first_token(clock);
        }
        self.retiring.clear();
        if steps >= self.next_done {
            let mut next = NEVER;
            for (i, &done) in self.done_at.iter().enumerate() {
                if done == steps {
                    self.retiring.push(i);
                } else {
                    next = next.min(done);
                }
            }
            self.next_done = next;
        }
        if let Some(&first) = self.retiring.first() {
            let len = self.seats.len();
            let (mut kept, mut retired_tokens) = (first, 0usize);
            for (k, &at) in self.retiring.iter().enumerate() {
                let seat = self.seats[at] as usize;
                catch_up(&mut self.requests[seat], steps, steps);
                self.page_end[seat] = NEVER;
                retired_tokens += self.requests[seat].prefilled();
                retire(&self.requests[seat], KvHandle(seat));
                let survivors = at + 1..self.retiring.get(k + 1).copied().unwrap_or(len);
                self.seats.copy_within(survivors.clone(), kept);
                self.done_at.copy_within(survivors.clone(), kept);
                kept += survivors.len();
            }
            self.seats.truncate(kept);
            self.done_at.truncate(kept);
            // The retired left with everything they held.
            self.decode_tokens = self
                .decode_tokens
                .checked_sub(retired_tokens)
                .expect("decodable-token counter underflow at retirement");
        }
        debug_assert!(
            !self.done_at.iter().any(|&done| done <= steps || done < self.next_done),
            "a resident's next visit is not ahead of the step count and its bound"
        );
        decodable
    }

    /// Empties the set, as a crash does: what is left is a fresh set at
    /// this step.
    pub(crate) fn clear(&mut self) {
        *self = Self { steps: self.steps, ..Self::default() };
    }

    /// The step `n` decode steps from now.
    fn step_after(&self, n: usize) -> Step {
        let step = Step::try_from(n).ok().and_then(|n| self.steps.checked_add(n));
        step.filter(|&step| step != NEVER).expect("a scheduler's decode steps fit u32")
    }

    /// Sets the page end of the resident at `seat`, which retires at
    /// `done_at`, and books it on that day — unless it retires first.
    fn book(&mut self, seat: u32, page_end: Step, done_at: Step) {
        self.page_end[seat as usize] = page_end;
        if page_end < done_at {
            let booking = Booking { stamp: self.stamps[seat as usize], seat, done_at };
            self.calendar[day(page_end)].push(booking);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_tensor::rng::TensorRng;

    /// One resident as the naive model holds it: its request, whose
    /// `generated` and `prefilled` are written on every step, and its page
    /// end and retirement step, explicit (`None` while it prefills).
    #[derive(Debug, Clone, Copy)]
    struct Naive {
        req: Request,
        handle: KvHandle,
        page_end: Option<Step>,
        done_at: Option<Step>,
    }

    /// The resident set spelled naively: one `Vec` in admission order, and
    /// every question answered by a scan of it.
    #[derive(Default)]
    struct Model {
        residents: Vec<Naive>,
        steps: Step,
    }

    /// `n` as a step count.
    fn step(n: usize) -> Step {
        Step::try_from(n).unwrap()
    }

    impl Model {
        fn unarmed(&self, i: usize) -> Option<(KvHandle, usize)> {
            let n = &self.residents[i];
            (n.done_at.is_none() && n.req.prefill_remaining() == 0).then_some((n.handle, n.req.prefill_len()))
        }

        fn arm(&mut self, i: usize, room: usize) {
            let (steps, n) = (self.steps, &mut self.residents[i]);
            n.page_end = Some(steps + step(room));
            n.done_at = Some(steps + step(n.req.remaining()));
        }

        fn prefill(&mut self, i: usize, chunk: usize) -> Option<(RequestId, usize, usize)> {
            let n = &mut self.residents[i];
            if n.done_at.is_some() {
                return None;
            }
            let (take, past) = (n.req.prefill_remaining().min(chunk), n.req.prefilled());
            n.req.set_prefilled(past + take);
            Some((n.req.id, take, past))
        }

        /// The decoding residents whose pages are full, in admission order.
        fn due(&self) -> Vec<(KvHandle, RequestId, usize)> {
            let full = self.residents.iter().filter(|n| n.page_end == Some(self.steps));
            full.map(|n| (n.handle, n.req.id, n.req.prefill_len())).collect()
        }

        fn grow(&mut self, handle: KvHandle, room: usize) {
            let steps = self.steps;
            let n = self.residents.iter_mut().find(|n| n.handle == handle).unwrap();
            n.page_end = Some(steps + step(room) + 1);
        }

        /// One step: every decoding resident gains a token (its first one
        /// stamped `clock`), and those that reach their output length leave,
        /// in admission order.
        fn decode(&mut self, clock: f64) -> Vec<(Request, KvHandle)> {
            self.steps += 1;
            for n in self.residents.iter_mut().filter(|n| n.done_at.is_some()) {
                n.req.decoded(1);
                if n.req.first_token_s().is_none() {
                    n.req.stamp_first_token(clock);
                }
            }
            let (gone, kept) = self.residents.iter().partition(|n| n.req.remaining() == 0);
            self.residents = kept;
            gone.into_iter()
                .map(|n: Naive| {
                    assert_eq!(n.done_at, Some(self.steps), "the model's own retirement step");
                    (n.req, n.handle)
                })
                .collect()
        }
    }

    /// Holds `set` to `model`: the residents (synced) and their handles in
    /// admission order, their headrooms, `prefilling` and the decode totals.
    fn check(set: &Residents, model: &Model) {
        assert_eq!(set.steps, model.steps, "step count");
        let mirror: Vec<_> = set.mirror().collect();
        let naive: Vec<_> = model
            .residents
            .iter()
            .map(|n| (n.handle, n.req, n.page_end.map(|end| usize::try_from(end - model.steps).unwrap())))
            .collect();
        assert_eq!(mirror, naive, "residents, handles and headrooms");
        let prefilling = model.residents.iter().filter(|n| n.req.prefill_remaining() > 0).count();
        assert_eq!(set.prefilling(), prefilling, "prefilling");
        let decoding = model.residents.iter().filter(|n| n.req.prefill_remaining() == 0);
        let totals = (decoding.clone().count(), decoding.map(|n| n.req.prefilled()).sum());
        assert_eq!(set.decode_totals(), totals, "decode totals");
    }

    /// A draw from `lo..=hi`.
    fn pick(rng: &mut TensorRng, lo: usize, hi: usize) -> usize {
        usize::try_from(rng.int_in(i64::try_from(lo).unwrap(), i64::try_from(hi).unwrap())).unwrap()
    }

    /// Headroom the ledger might grant: mostly a few tokens, so page ends
    /// crowd the days and seats are re-seated within a lap; now and then
    /// more than a lap, so a booking waits out whole laps.
    fn room(rng: &mut TensorRng) -> usize {
        if pick(rng, 0, 7) == 0 {
            pick(rng, CALENDAR_DAYS, 3 * CALENDAR_DAYS)
        } else {
            pick(rng, 0, 3)
        }
    }

    /// Arms resident `i` of both, if its prefill is complete.
    fn arm_if_ready(set: &mut Residents, model: &mut Model, i: usize, rng: &mut TensorRng) {
        assert_eq!(set.unarmed(i), model.unarmed(i), "resident {i}: unarmed");
        if set.unarmed(i).is_some() {
            let room = room(rng);
            set.arm(i, room);
            model.arm(i, room);
        }
    }

    /// Make-room with random refusals, as the scheduler walks it: each due
    /// resident still present is granted its next page or refused, and a
    /// refusal evicts the newest resident and retries.
    fn make_room(set: &mut Residents, model: &mut Model, rng: &mut TensorRng) {
        let listed = model.due();
        let due: Vec<_> = (0..set.take_due()).map(|k| set.due(k).unwrap()).collect();
        assert_eq!(due, listed, "step {}: the due set and its order", model.steps);
        for (k, &(handle, id, held)) in listed.iter().enumerate() {
            let present = model.residents.iter().any(|n| n.req.id == id);
            assert_eq!(set.due(k), present.then_some((handle, id, held)), "due {k}: evicted or not");
            if !present {
                continue;
            }
            loop {
                if set.len() > 1 && pick(rng, 0, 5) == 0 {
                    let victim = set.len() - 1;
                    let evicted = model.residents.remove(victim);
                    assert_eq!(set.evict(victim), (evicted.req, evicted.handle), "make-room's victim");
                    if evicted.handle == handle {
                        break;
                    }
                } else {
                    let room = room(rng);
                    set.grow(k, room);
                    model.grow(handle, room);
                    break;
                }
            }
        }
    }

    qserve_tensor::props! {
        /// The resident set against its naive model over random sequences of
        /// seatings (at seats from a small pool, some arriving decodable),
        /// prefill passes, evictions, make-room walks with refusals, decode
        /// steps and crashes. After every operation the residents, their
        /// handles and headrooms, `prefilling` and the decode totals agree;
        /// make-room's due set and order are compared as it is taken, and
        /// the retirees and their order as they leave. After a crash the
        /// set equals a fresh one at the same step.
        fn residents_match_the_naive_model(rng, cases = 256) {
            let seats = pick(rng, 1, 6);
            let (mut set, mut model) = (Residents::default(), Model::default());
            let (mut clock, mut next_id) = (0.0, 0u64);
            for _ in 0..pick(rng, 1, 400) {
                match pick(rng, 0, 99) {
                    0..=34 => {
                        let vacant: Vec<usize> =
                            (0..seats).filter(|&s| model.residents.iter().all(|n| n.handle.0 != s)).collect();
                        let Some(&seat) = vacant.get(pick(rng, 0, vacant.len().max(1) - 1)) else { continue };
                        // Mostly short outputs, so residents retire within a
                        // lap; some long enough to outlast a page a lap ahead.
                        let output = if pick(rng, 0, 3) == 0 { pick(rng, 13, 80) } else { pick(rng, 1, 12) };
                        let input = pick(rng, 1, 6);
                        let mut req = Request::new(RequestId(next_id), input, output, 0.0);
                        next_id += 1;
                        if pick(rng, 0, 3) == 0 {
                            // Resumed after a preemption: its first token is out.
                            req.decoded(pick(rng, 1, output) - 1);
                            req.stamp_first_token(0.0);
                        }
                        let full = req.prefill_len();
                        req.set_prefilled(if pick(rng, 0, 2) == 0 { full } else { pick(rng, 0, full - 1) });
                        let i = set.seat(req, KvHandle(seat));
                        let handle = KvHandle(seat);
                        model.residents.push(Naive { req, handle, page_end: None, done_at: None });
                        arm_if_ready(&mut set, &mut model, i, rng);
                    }
                    35..=54 => {
                        let chunk = [1, 2, 3, usize::MAX][pick(rng, 0, 3)];
                        let tail = set.prefill_tail();
                        for i in 0..set.len() {
                            let slice = if tail.contains(&i) { set.prefill(i, chunk) } else { None };
                            assert_eq!(slice, model.prefill(i, chunk), "resident {i}: prefill slice");
                            arm_if_ready(&mut set, &mut model, i, rng);
                        }
                    }
                    55..=58 if !set.is_empty() => {
                        let i = pick(rng, 0, set.len() - 1);
                        let evicted = model.residents.remove(i);
                        assert_eq!(set.evict(i), (evicted.req, evicted.handle), "evicted");
                    }
                    59..=98 => {
                        make_room(&mut set, &mut model, rng);
                        if set.decodable() > 0 {
                            clock += 1.0;
                            let mut retired = Vec::new();
                            let armed = model.residents.iter().filter(|n| n.done_at.is_some()).count();
                            assert_eq!(set.decode(clock, |r, handle| retired.push((*r, handle))), armed);
                            let step = model.steps + 1;
                            let naive = model.decode(clock);
                            assert_eq!(retired, naive, "step {step}: the retirees and their order");
                        }
                    }
                    99 => {
                        set.clear();
                        model.residents.clear();
                        let fresh = Residents { steps: model.steps, ..Residents::default() };
                        assert_eq!(set, fresh, "a crash leaves a fresh set");
                    }
                    _ => {}
                }
                check(&set, &model);
            }
        }
    }
}
