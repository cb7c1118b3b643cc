//! Deterministic parallel execution for the input pipeline.
//!
//! Everything in this module obeys one contract: **the result is a pure
//! function of the inputs, independent of the thread budget**. Work is cut
//! into chunks whose boundaries depend only on the data size (never on the
//! core count), each chunk computes a value that no other chunk can observe,
//! and results are recombined in chunk order. Running on one thread or
//! sixteen therefore produces identical bytes — the property the golden
//! generator hashes and the cross-run suite determinism tests pin.
//!
//! The thread budget comes from [`rayon::current_num_threads`] (the vendored
//! shim reads `RAYON_NUM_THREADS`, defaulting to the host parallelism);
//! [`with_serial_input`] and the `ECL_SERIAL_INPUT` environment variable
//! force a budget of one so parity tests can compare scheduled-serial
//! against threaded execution.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// True when chunked work must run on the calling thread (scoped
/// [`with_serial_input`] or ambient `ECL_SERIAL_INPUT=1`).
pub fn serial_input() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    FORCE_SERIAL.with(Cell::get)
        || *ENV.get_or_init(|| {
            std::env::var("ECL_SERIAL_INPUT").is_ok_and(|v| !v.is_empty() && v != "0")
        })
}

/// Runs `f` with the parallel helpers pinned to one thread. The chunked
/// algorithms still run chunk by chunk — just in order on this thread — so
/// comparing against an unpinned run checks scheduling-independence.
pub fn with_serial_input<R>(f: impl FnOnce() -> R) -> R {
    FORCE_SERIAL.with(|c| {
        let prev = c.replace(true);
        let r = f();
        c.set(prev);
        r
    })
}

/// Worker-thread budget for the helpers below.
pub fn max_threads() -> usize {
    if serial_input() {
        1
    } else {
        rayon::current_num_threads()
    }
}

/// Cuts `0..total` into consecutive ranges of roughly `target` elements.
/// Boundaries depend only on `total` and `target` — never the thread count —
/// so per-chunk RNG stream positions are stable across hosts.
pub fn chunk_ranges(total: usize, target: usize) -> Vec<Range<usize>> {
    let target = target.max(1);
    let chunks = total.div_ceil(target).max(1);
    let base = total / chunks;
    let extra = total % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut lo = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        out.push(lo..lo + len);
        lo += len;
    }
    out
}

/// Maps `f` over `items` on up to [`max_threads`] workers, returning results
/// in item order. Workers self-schedule off an atomic index, so chunk cost
/// imbalance does not serialize the tail.
pub fn par_map<T: Sync, R: Send + Sync>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let threads = max_threads().min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let computed = slots[i].set(f(i, &items[i])).is_ok();
                debug_assert!(computed, "chunk {i} scheduled twice");
            });
        }
    });
    slots
        .into_iter()
        .map(|c| c.into_inner().expect("every chunk ran"))
        .collect()
}

/// [`par_map`] over the chunking of `0..total`: `f` receives each range and
/// the results come back in range order.
pub fn run_chunks<R: Send + Sync>(
    total: usize,
    target: usize,
    f: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let ranges = chunk_ranges(total, target);
    par_map(&ranges, |_, r| f(r.clone()))
}

/// Runs `f` once per owned task on up to [`max_threads`] workers and returns
/// the results in task order. For tasks that carry `&mut` slices (disjoint by
/// construction at the call site). Workers self-schedule off a shared queue,
/// so one expensive task (a hub vertex's bucket, say) does not hold back the
/// tasks queued behind it.
///
/// The queue and the result slots live on the caller's heap, so a worker
/// allocates nothing beyond what `f` does: glibc keeps the heap memory a
/// thread touched in that thread's arena after the thread exits, and
/// allocations on short-lived workers add up in the peak RSS.
pub fn par_tasks<T: Send, R: Send>(tasks: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let len = tasks.len();
    let threads = max_threads().min(len);
    if threads <= 1 {
        return tasks.into_iter().map(f).collect();
    }
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let slots: Vec<Mutex<Option<R>>> = std::iter::repeat_with(|| Mutex::new(None))
        .take(len)
        .collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                // Bound first, so the queue is unlocked before `f` runs.
                let next = queue.lock().expect("task queue poisoned").next();
                let Some((i, task)) = next else { break };
                let r = f(task);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task ran")
        })
        .collect()
}

/// Splits `data` at the given ascending cut points (relative to the start of
/// `data`, final implicit cut at `data.len()`) into `cuts.len() + 1`
/// disjoint pieces.
pub fn split_mut_at<'a, T>(data: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    let mut rest = data;
    let mut prev = 0;
    let mut pieces = Vec::with_capacity(cuts.len() + 1);
    for &c in cuts {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(c - prev);
        pieces.push(head);
        rest = tail;
        prev = c;
    }
    pieces.push(rest);
    pieces
}

/// [`split_mut_at`] then [`par_tasks`]: hands each piece, with its index, to
/// `f` in parallel and returns the results in piece order.
pub fn par_split_mut<T: Send, R: Send>(
    data: &mut [T],
    cuts: &[usize],
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let tasks: Vec<_> = split_mut_at(data, cuts).into_iter().enumerate().collect();
    par_tasks(tasks, |(i, piece)| f(i, piece))
}

/// Items per chunk of [`scatter_stable`]'s histogram and scatter passes.
const SCATTER_CHUNK: usize = 1 << 16;

/// Stable parallel bucket scatter: the distribution pass of a counting sort.
///
/// Returns `emit(i, &items[i])` for every item, grouped by
/// `bucket_of(&items[i])` (which must be `< buckets`) in ascending bucket
/// order, with the items of one bucket in input order; and the
/// `buckets + 1` bucket offsets into that output.
///
/// The items are cut into data-size-keyed chunks. Per-chunk histograms give
/// every (bucket, chunk) pair its own slice of the one output buffer, so the
/// chunks scatter concurrently into disjoint slices and the layout never
/// depends on the thread count.
pub fn scatter_stable<T: Sync, R: Copy + Default + Send>(
    items: &[T],
    buckets: usize,
    bucket_of: impl Fn(&T) -> usize + Sync,
    emit: impl Fn(usize, &T) -> R + Sync,
) -> (Vec<R>, Vec<usize>) {
    let chunks = chunk_ranges(items.len(), SCATTER_CHUNK);
    // hist[c * buckets + b]: items of chunk c in bucket b.
    let mut hist = vec![0u32; chunks.len() * buckets];
    let hist_cuts: Vec<usize> = (1..chunks.len()).map(|c| c * buckets).collect();
    par_split_mut(&mut hist, &hist_cuts, |c, counts| {
        for x in &items[chunks[c].clone()] {
            counts[bucket_of(x)] += 1;
        }
    });

    // Bucket-major layout: bucket b holds chunk 0's items, then chunk 1's, …
    let mut out = vec![R::default(); items.len()];
    let mut offsets = Vec::with_capacity(buckets + 1);
    let mut slots: Vec<Vec<std::slice::IterMut<'_, R>>> =
        chunks.iter().map(|_| Vec::with_capacity(buckets)).collect();
    let mut rest = out.as_mut_slice();
    let mut total = 0;
    for b in 0..buckets {
        offsets.push(total);
        for (c, chunk_slots) in slots.iter_mut().enumerate() {
            let len = hist[c * buckets + b] as usize;
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(len);
            chunk_slots.push(piece.iter_mut());
            rest = tail;
            total += len;
        }
    }
    offsets.push(total);

    let tasks: Vec<_> = chunks.into_iter().zip(slots).collect();
    par_tasks(tasks, |(r, mut slots)| {
        for i in r {
            let slot = slots[bucket_of(&items[i])]
                .next()
                .expect("the histogram counted this item");
            *slot = emit(i, &items[i]);
        }
    });
    (out, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for total in [0usize, 1, 7, 100, 65_537] {
            for target in [1usize, 3, 64, 1 << 16] {
                let ranges = chunk_ranges(total, target);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
                assert_eq!(expect, total);
                assert!(!ranges.is_empty());
            }
        }
    }

    #[test]
    fn par_map_ordered_and_serial_identical() {
        let items: Vec<u64> = (0..1000).collect();
        let threaded = par_map(&items, |i, &x| x * 2 + i as u64);
        let serial = with_serial_input(|| par_map(&items, |i, &x| x * 2 + i as u64));
        assert_eq!(threaded, serial);
        assert_eq!(threaded[500], 1500);
    }

    #[test]
    fn par_split_mut_disjoint_pieces() {
        let mut v = vec![0u32; 100];
        par_split_mut(&mut v, &[10, 40], |i, piece| {
            for x in piece.iter_mut() {
                *x = i as u32 + 1;
            }
        });
        assert!(v[..10].iter().all(|&x| x == 1));
        assert!(v[10..40].iter().all(|&x| x == 2));
        assert!(v[40..].iter().all(|&x| x == 3));
    }

    #[test]
    fn par_tasks_returns_in_task_order() {
        let tasks: Vec<u32> = (0..50).collect();
        let threaded = par_tasks(tasks.clone(), |x| x * x);
        let serial = with_serial_input(|| par_tasks(tasks, |x| x * x));
        assert_eq!(threaded, serial);
        assert_eq!(threaded[7], 49);
    }

    /// Keys with a deliberately skewed spread: bucket 0 takes most items.
    fn skewed_items(len: usize) -> Vec<(u32, u32)> {
        (0..len as u32)
            .map(|i| {
                (
                    if i % 3 == 0 {
                        i.wrapping_mul(2_654_435_761) % 5
                    } else {
                        0
                    },
                    i,
                )
            })
            .collect()
    }

    #[test]
    fn scatter_stable_groups_by_bucket_in_input_order() {
        // Spans more than one scatter chunk (outside Miri) so cross-chunk
        // order is exercised too.
        let len = if cfg!(miri) {
            300
        } else {
            SCATTER_CHUNK * 2 + 77
        };
        let items = skewed_items(len);
        let (out, offsets) = scatter_stable(&items, 5, |&(k, _)| k as usize, |i, &x| (x, i));
        assert_eq!(offsets.len(), 6);
        assert_eq!(offsets[5], len);
        // A stable sort by bucket is the specification.
        let mut expect: Vec<((u32, u32), usize)> = items.iter().copied().zip(0..).collect();
        expect.sort_by_key(|&((k, _), _)| k);
        assert_eq!(out, expect);
        for b in 0..5 {
            assert!(out[offsets[b]..offsets[b + 1]]
                .iter()
                .all(|&((k, _), _)| k as usize == b));
        }
    }

    #[test]
    fn scatter_stable_serial_identical_and_handles_empty_buckets() {
        let items = skewed_items(if cfg!(miri) { 200 } else { 70_000 });
        let run = || scatter_stable(&items, 9, |&(k, _)| k as usize * 2, |_, &x| x);
        let threaded = run();
        assert_eq!(threaded, with_serial_input(run));
        // Odd buckets receive nothing: their ranges are empty.
        for b in (1..9).step_by(2) {
            assert_eq!(threaded.1[b], threaded.1[b + 1]);
        }
        let (empty, offsets) = scatter_stable(&[] as &[u32], 3, |_| 0, |_, &x| x);
        assert!(empty.is_empty());
        assert_eq!(offsets, vec![0; 4]);
    }
}
