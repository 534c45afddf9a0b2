//! The ordered worker pool the lab runner and the exploration campaigns
//! share.
//!
//! Items are claimed from a shared cursor by up to `workers` scoped
//! threads, and each result is written into the slot of its item's
//! index, so the collected output is in item order — identical to a
//! serial map at any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on up to `workers` threads (`<= 1` means
/// serial, on the calling thread) and collects the results **in item
/// order**. Collecting into a `Result` stops at the lowest-indexed error,
/// as a serial `collect` would; in the threaded case the later items have
/// run by then.
pub fn ordered_map<T, R, C>(items: &[T], workers: usize, f: impl Fn(&T) -> R + Sync) -> C
where
    T: Sync,
    R: Send,
    C: FromIterator<R>,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len()) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every item index was claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_at_any_worker_count() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = ordered_map(&items, 1, |x| x * x);
        for workers in [2, 3, 8] {
            let threaded: Vec<u64> = ordered_map(&items, workers, |x| x * x);
            assert_eq!(serial, threaded);
        }
        let first_error: Result<Vec<u64>, u64> =
            ordered_map(&items, 4, |&x| if x % 7 == 3 { Err(x) } else { Ok(x) });
        assert_eq!(first_error, Err(3));
    }
}
