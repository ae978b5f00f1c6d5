//! Multi-threaded implementation of the subset of the `rayon` API this
//! workspace uses, with a deterministic replay mode and a
//! happens-before race detector built in.
//!
//! The root manifest renames this package to the `rayon` dependency key
//! (`rayon = { path = "shims/par", package = "lotus-par" }`), so every
//! `use rayon::prelude::*` in the workspace resolves here unchanged.
//!
//! Execution model: a parallel pipeline is a materialized source
//! (`Vec` of items) plus a composable per-chunk transform
//! ([`ChunkXform`]). Terminals split the source into contiguous chunks
//! and run transform + consumer over them on the work-stealing pool
//! (the private `pool` module), merging per-chunk partial results in
//! chunk order — so
//! results (sums, collected vectors, triangle counts) are deterministic
//! and identical to a sequential run for the associative, commutative
//! reductions this workspace uses.
//!
//! Inside [`sched::with_schedule`] the same pipeline replays
//! deterministically on the calling thread: one logical task per item,
//! executed in a seeded permutation, with fork/join/combine and
//! byte-range access events recorded for the happens-before detector
//! ([`hb`]). The pool honors a process-wide thread limit
//! ([`configure_threads`], `ThreadPool::install`); with one thread (the
//! default on single-core hosts) terminals run inline on the caller.

use std::cmp::Ordering;
use std::marker::PhantomData;

pub mod hb;
mod pool;
pub mod sched;

pub use pool::configure_threads;

/// Fewest items per pool chunk where the call site sets no
/// `with_min_len`: chunking overhead dominates below it.
const MIN_PAR_ITEMS: usize = 32;

/// Fewest pool chunks per executor in a terminal of at least
/// [`MIN_PAR_ITEMS`] items that sets no `with_min_len`.
const MIN_CHUNKS_PER_THREAD: usize = 4;

/// Most pool chunks per executor in one terminal. Fine enough that idle
/// executors can balance a region whose work is skewed towards some of
/// its items (hub-first relabeling puts the heaviest vertices first).
const CHUNKS_PER_THREAD: usize = 64;

/// Least memory a pipeline's source gives back at a time while it is cut
/// into chunks (see `split_chunks`).
const SHRINK_STEP_BYTES: usize = 1 << 20;

/// Slices shorter than this sort sequentially (smaller under Miri, so
/// that its tests still reach the parallel sort).
const MIN_PAR_SORT: usize = if cfg!(miri) { 64 } else { 4096 };

/// A composable transform applied to one contiguous chunk of source
/// items. `base` is the chunk's offset in the original source, which
/// keeps [`EnumerateX`] index-accurate under any chunking (and equal to
/// the logical task id under deterministic replay).
pub trait ChunkXform<T> {
    /// Output item type.
    type Out;

    /// Transforms one chunk.
    fn apply(&self, base: usize, items: Vec<T>) -> Vec<Self::Out>;
}

/// The identity transform: source items pass through untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityX;

impl<T> ChunkXform<T> for IdentityX {
    type Out = T;

    fn apply(&self, _base: usize, items: Vec<T>) -> Vec<T> {
        items
    }
}

/// `map` transform (see [`ParallelIterator::map`]).
#[derive(Debug, Clone)]
pub struct MapX<X, F> {
    inner: X,
    f: F,
}

impl<T, X, F, R> ChunkXform<T> for MapX<X, F>
where
    X: ChunkXform<T>,
    F: Fn(X::Out) -> R,
{
    type Out = R;

    fn apply(&self, base: usize, items: Vec<T>) -> Vec<R> {
        self.inner
            .apply(base, items)
            .into_iter()
            .map(&self.f)
            .collect()
    }
}

/// `filter` transform (see [`ParallelIterator::filter`]).
#[derive(Debug, Clone)]
pub struct FilterX<X, F> {
    inner: X,
    f: F,
}

impl<T, X, F> ChunkXform<T> for FilterX<X, F>
where
    X: ChunkXform<T>,
    F: Fn(&X::Out) -> bool,
{
    type Out = X::Out;

    fn apply(&self, base: usize, items: Vec<T>) -> Vec<X::Out> {
        self.inner
            .apply(base, items)
            .into_iter()
            .filter(|x| (self.f)(x))
            .collect()
    }
}

/// `flat_map_iter` transform (see [`ParallelIterator::flat_map_iter`]).
#[derive(Debug, Clone)]
pub struct FlatMapX<X, F> {
    inner: X,
    f: F,
}

impl<T, X, F, U> ChunkXform<T> for FlatMapX<X, F>
where
    X: ChunkXform<T>,
    F: Fn(X::Out) -> U,
    U: IntoIterator,
{
    type Out = U::Item;

    fn apply(&self, base: usize, items: Vec<T>) -> Vec<U::Item> {
        self.inner
            .apply(base, items)
            .into_iter()
            .flat_map(|x| (self.f)(x))
            .collect()
    }
}

/// `enumerate` transform: pairs each item with its *original* index
/// (`base + position`), independent of execution order and chunking.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnumerateX;

impl<T> ChunkXform<T> for EnumerateX {
    type Out = (usize, T);

    fn apply(&self, base: usize, items: Vec<T>) -> Vec<(usize, T)> {
        items
            .into_iter()
            .enumerate()
            .map(|(i, x)| (base + i, x))
            .collect()
    }
}

/// `copied` transform (see [`ParallelIterator::copied`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CopiedX<X> {
    inner: X,
}

impl<'a, T, U, X> ChunkXform<T> for CopiedX<X>
where
    U: 'a + Copy,
    X: ChunkXform<T, Out = &'a U>,
{
    type Out = U;

    fn apply(&self, base: usize, items: Vec<T>) -> Vec<U> {
        self.inner.apply(base, items).into_iter().copied().collect()
    }
}

/// `cloned` transform (see [`ParallelIterator::cloned`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClonedX<X> {
    inner: X,
}

impl<'a, T, U, X> ChunkXform<T> for ClonedX<X>
where
    U: 'a + Clone,
    X: ChunkXform<T, Out = &'a U>,
{
    type Out = U;

    fn apply(&self, base: usize, items: Vec<T>) -> Vec<U> {
        self.inner.apply(base, items).into_iter().cloned().collect()
    }
}

/// `fold` transform (see [`ParallelIterator::fold`]): folds each chunk
/// into one accumulator, inside the chunk.
#[derive(Debug, Clone)]
pub struct FoldX<X, Id, F> {
    inner: X,
    identity: Id,
    f: F,
}

impl<T, A, X, Id, F> ChunkXform<T> for FoldX<X, Id, F>
where
    X: ChunkXform<T>,
    Id: Fn() -> A,
    F: Fn(A, X::Out) -> A,
{
    type Out = A;

    fn apply(&self, base: usize, items: Vec<T>) -> Vec<A> {
        let items = self.inner.apply(base, items).into_iter();
        vec![items.fold((self.identity)(), &self.f)]
    }
}

/// Replay bookkeeping for a source materialized under an active
/// schedule: its region id and the seeded task permutation.
#[derive(Debug, Clone)]
struct SchedInfo {
    region: u32,
    perm: Vec<u32>,
}

/// A parallel pipeline: materialized source items plus the composed
/// per-chunk transform. Created by the `IntoParallel*` traits; consumed
/// by the [`ParallelIterator`] terminals.
#[derive(Debug)]
pub struct Par<T, X> {
    items: Vec<T>,
    xform: X,
    sched: Option<SchedInfo>,
    /// Fewest items per pool chunk, set by
    /// [`IndexedParallelIterator::with_min_len`]; 0 when unset.
    min_len: usize,
}

impl<T> Par<T, IdentityX> {
    /// Materializes a source. Under an active schedule this forks a
    /// region and fixes the seeded task permutation.
    fn from_source(it: impl Iterator<Item = T>) -> Self {
        let items: Vec<T> = it.collect();
        let sched = sched::active_seed().map(|seed| SchedInfo {
            perm: sched::permutation(seed, items.len()),
            region: sched::fork_region(items.len() as u32),
        });
        Par {
            items,
            xform: IdentityX,
            sched,
            min_len: 0,
        }
    }
}

/// A terminal: consumes one chunk's transformed items into a partial
/// result and merges partials (always in chunk order).
trait Consumer<T>: Sync {
    /// Whether this terminal folds task values into the continuation —
    /// reduction terminals emit per-task combine edges under replay.
    const COMBINES: bool;

    /// Partial (and final) result type.
    type Out: Send;

    /// Consumes one chunk.
    fn consume<I: Iterator<Item = T>>(&self, items: I) -> Self::Out;

    /// Merges two partials; `a` is from the earlier chunk.
    fn merge(&self, a: Self::Out, b: Self::Out) -> Self::Out;
}

struct ForEachConsumer<F> {
    f: F,
}

impl<T, F: Fn(T) + Sync> Consumer<T> for ForEachConsumer<F> {
    const COMBINES: bool = false;
    type Out = ();

    fn consume<I: Iterator<Item = T>>(&self, items: I) {
        for x in items {
            (self.f)(x);
        }
    }

    fn merge(&self, (): (), (): ()) {}
}

struct ForEachInitConsumer<Init, F> {
    init: Init,
    op: F,
}

impl<T, S, Init, F> Consumer<T> for ForEachInitConsumer<Init, F>
where
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, T) + Sync,
{
    const COMBINES: bool = false;
    type Out = ();

    fn consume<I: Iterator<Item = T>>(&self, items: I) {
        let mut scratch = (self.init)();
        for x in items {
            (self.op)(&mut scratch, x);
        }
    }

    fn merge(&self, (): (), (): ()) {}
}

struct CollectConsumer;

impl<T: Send> Consumer<T> for CollectConsumer {
    const COMBINES: bool = false;
    type Out = Vec<T>;

    fn consume<I: Iterator<Item = T>>(&self, items: I) -> Vec<T> {
        items.collect()
    }

    fn merge(&self, mut a: Vec<T>, mut b: Vec<T>) -> Vec<T> {
        a.append(&mut b);
        a
    }
}

struct SumConsumer<S>(PhantomData<fn() -> S>);

impl<T, S> Consumer<T> for SumConsumer<S>
where
    S: Send + std::iter::Sum<T> + std::iter::Sum<S>,
{
    const COMBINES: bool = true;
    type Out = S;

    fn consume<I: Iterator<Item = T>>(&self, items: I) -> S {
        items.sum()
    }

    fn merge(&self, a: S, b: S) -> S {
        std::iter::once(a).chain(std::iter::once(b)).sum()
    }
}

struct CountConsumer;

impl<T> Consumer<T> for CountConsumer {
    const COMBINES: bool = true;
    type Out = usize;

    fn consume<I: Iterator<Item = T>>(&self, items: I) -> usize {
        items.count()
    }

    fn merge(&self, a: usize, b: usize) -> usize {
        a + b
    }
}

struct MaxConsumer;

impl<T: Ord + Send> Consumer<T> for MaxConsumer {
    const COMBINES: bool = true;
    type Out = Option<T>;

    fn consume<I: Iterator<Item = T>>(&self, items: I) -> Option<T> {
        items.max()
    }

    fn merge(&self, a: Option<T>, b: Option<T>) -> Option<T> {
        match (a, b) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        }
    }
}

struct MinConsumer;

impl<T: Ord + Send> Consumer<T> for MinConsumer {
    const COMBINES: bool = true;
    type Out = Option<T>;

    fn consume<I: Iterator<Item = T>>(&self, items: I) -> Option<T> {
        items.min()
    }

    fn merge(&self, a: Option<T>, b: Option<T>) -> Option<T> {
        match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    }
}

struct ReduceConsumer<Id, Op> {
    identity: Id,
    op: Op,
}

impl<T, Id, Op> Consumer<T> for ReduceConsumer<Id, Op>
where
    T: Send,
    Id: Fn() -> T + Sync,
    Op: Fn(T, T) -> T + Sync,
{
    const COMBINES: bool = true;
    type Out = T;

    fn consume<I: Iterator<Item = T>>(&self, items: I) -> T {
        items.fold((self.identity)(), &self.op)
    }

    fn merge(&self, a: T, b: T) -> T {
        (self.op)(a, b)
    }
}

/// Runs a pipeline to completion through `consumer`.
///
/// Three paths: deterministic replay (one logical task per item, seeded
/// permutation order, full event logging), inline sequential (single
/// thread, small inputs, or scheduled-but-unforked values), or chunked
/// execution on the work-stealing pool with partials merged in chunk
/// order.
fn drive<T, X, C>(par: Par<T, X>, consumer: &C) -> C::Out
where
    T: Send,
    X: ChunkXform<T> + Sync,
    X::Out: Send,
    C: Consumer<X::Out>,
{
    let Par {
        items,
        xform,
        sched: info,
        min_len,
    } = par;

    if let Some(info) = info {
        // Deterministic replay: one chunk per logical task, permuted
        // execution order, original-index attribution. `min_len` does
        // not apply: every item stays a task of its own.
        let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
        let mut parts: Vec<(u32, C::Out)> = Vec::with_capacity(slots.len());
        for &task in &info.perm {
            let Some(item) = slots[task as usize].take() else {
                continue;
            };
            sched::begin_task(info.region, task);
            let outs = xform.apply(task as usize, vec![item]);
            let part = consumer.consume(outs.into_iter());
            if C::COMBINES {
                sched::combine_current();
            }
            sched::end_task(info.region, task);
            parts.push((task, part));
        }
        sched::join_region(info.region);
        parts.sort_unstable_by_key(|p| p.0);
        return parts
            .into_iter()
            .map(|p| p.1)
            .reduce(|a, b| consumer.merge(a, b))
            .unwrap_or_else(|| consumer.consume(std::iter::empty()));
    }

    let n = items.len();
    let chunks = if sched::is_scheduled() {
        1
    } else {
        chunk_count(n, pool::effective_threads(), min_len)
    };
    if chunks <= 1 {
        return consumer.consume(xform.apply(0, items).into_iter());
    }

    // Chunked execution on the pool; merge partials in chunk order.
    let chunk_size = n.div_ceil(chunks);
    let xform = &xform;
    let parts = pool::run(split_chunks(items, chunk_size), move |idx, chunk| {
        let base = idx as usize * chunk_size;
        consumer.consume(xform.apply(base, chunk).into_iter())
    });
    parts
        .into_iter()
        .reduce(|a, b| consumer.merge(a, b))
        .unwrap_or_else(|| consumer.consume(std::iter::empty()))
}

/// How many pool chunks a terminal over `n` items is cut into on
/// `threads` executors: up to [`CHUNKS_PER_THREAD`] per executor, so an
/// executor that runs out of work finds chunks left to steal.
///
/// A call site's `min_len` (0 when unset) bounds every chunk from below;
/// a pipeline shorter than twice that runs inline. Unset, a chunk holds
/// at least [`MIN_PAR_ITEMS`] items, except that a short pipeline is
/// still cut into [`MIN_CHUNKS_PER_THREAD`] chunks per executor: its few
/// items are heavy ones (generator blocks, say), or it would not be
/// parallel, and an executor that falls behind must leave some to steal.
fn chunk_count(n: usize, threads: usize, min_len: usize) -> usize {
    if threads <= 1 {
        return 1;
    }
    let most = threads * CHUNKS_PER_THREAD;
    match n.checked_div(min_len) {
        Some(chunks) => chunks.min(most),
        None if n < MIN_PAR_ITEMS => 1,
        None => (n / MIN_PAR_ITEMS)
            .max(threads * MIN_CHUNKS_PER_THREAD)
            .min(most)
            .min(n),
    }
}

/// Cuts `items` into chunks of `size` (the last may be shorter), in
/// order. Chunks are split off the tail, and the source gives back its
/// memory in steps of at least [`SHRINK_STEP_BYTES`], so a large source
/// is never held twice; a small one is freed at the end, which spares
/// the allocator a shrinking reallocation per chunk.
fn split_chunks<T>(mut items: Vec<T>, size: usize) -> Vec<Vec<T>> {
    let step = SHRINK_STEP_BYTES / std::mem::size_of::<T>().max(1);
    let mut chunks = Vec::with_capacity(items.len().div_ceil(size));
    while !items.is_empty() {
        let at = (items.len() - 1) / size * size;
        chunks.push(items.split_off(at));
        if items.capacity() - items.len() >= step {
            items.shrink_to_fit();
        }
    }
    chunks.reverse();
    chunks
}

/// The rayon `ParallelIterator` adapter/terminal surface.
pub trait ParallelIterator: Sized {
    /// Item type, mirroring `rayon::iter::ParallelIterator::Item`.
    type Item: Send;
    /// The materialized source item type.
    type SrcItem: Send;
    /// The composed per-chunk transform.
    type Xform: ChunkXform<Self::SrcItem, Out = Self::Item> + Sync;

    /// Converts into the concrete pipeline representation.
    fn into_par(self) -> Par<Self::SrcItem, Self::Xform>;

    /// Maps each item (rayon: `map`).
    fn map<R, F>(self, f: F) -> Par<Self::SrcItem, MapX<Self::Xform, F>>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        let p = self.into_par();
        Par {
            items: p.items,
            xform: MapX { inner: p.xform, f },
            sched: p.sched,
            min_len: p.min_len,
        }
    }

    /// Keeps items matching the predicate (rayon: `filter`).
    fn filter<F>(self, f: F) -> Par<Self::SrcItem, FilterX<Self::Xform, F>>
    where
        F: Fn(&Self::Item) -> bool + Sync + Send,
    {
        let p = self.into_par();
        Par {
            items: p.items,
            xform: FilterX { inner: p.xform, f },
            sched: p.sched,
            min_len: p.min_len,
        }
    }

    /// Maps each item to a *sequential* iterator and flattens (rayon:
    /// `flat_map_iter`).
    fn flat_map_iter<U, F>(self, f: F) -> Par<Self::SrcItem, FlatMapX<Self::Xform, F>>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        let p = self.into_par();
        Par {
            items: p.items,
            xform: FlatMapX { inner: p.xform, f },
            sched: p.sched,
            min_len: p.min_len,
        }
    }

    /// Pairs items with their original index (rayon: `enumerate`),
    /// independent of execution order. Only available at the source
    /// level (rayon: indexed parallel iterators).
    fn enumerate(self) -> Par<Self::SrcItem, EnumerateX>
    where
        Self: ParallelIterator<Xform = IdentityX>,
    {
        let p = self.into_par();
        Par {
            items: p.items,
            xform: EnumerateX,
            sched: p.sched,
            min_len: p.min_len,
        }
    }

    /// Zips with another source-level parallel iterator (rayon: `zip`).
    /// The zipped pairs form a single region under replay, so the two
    /// sides stay aligned under any schedule.
    fn zip<B>(self, other: B) -> Par<(Self::SrcItem, B::SrcItem), IdentityX>
    where
        Self: ParallelIterator<Xform = IdentityX>,
        B: ParallelIterator<Xform = IdentityX>,
    {
        let a = self.into_par();
        let b = other.into_par();
        // The pairs inherit the left region; the right source's region
        // becomes empty and joins immediately.
        if let Some(info) = b.sched {
            sched::join_region(info.region);
        }
        let items: Vec<_> = a.items.into_iter().zip(b.items).collect();
        let sched = a.sched.map(|info| {
            if info.perm.len() == items.len() {
                info
            } else {
                SchedInfo {
                    perm: sched::permutation(sched::active_seed().unwrap_or_default(), items.len()),
                    region: info.region,
                }
            }
        });
        Par {
            items,
            xform: IdentityX,
            sched,
            min_len: a.min_len.max(b.min_len),
        }
    }

    /// Copies `&T` items (rayon: `copied`).
    fn copied<'a, T>(self) -> Par<Self::SrcItem, CopiedX<Self::Xform>>
    where
        Self: ParallelIterator<Item = &'a T>,
        T: 'a + Copy + Send + Sync,
    {
        let p = self.into_par();
        Par {
            items: p.items,
            xform: CopiedX { inner: p.xform },
            sched: p.sched,
            min_len: p.min_len,
        }
    }

    /// Clones `&T` items (rayon: `cloned`).
    fn cloned<'a, T>(self) -> Par<Self::SrcItem, ClonedX<Self::Xform>>
    where
        Self: ParallelIterator<Item = &'a T>,
        T: 'a + Clone + Send + Sync,
    {
        let p = self.into_par();
        Par {
            items: p.items,
            xform: ClonedX { inner: p.xform },
            sched: p.sched,
            min_len: p.min_len,
        }
    }

    /// Runs `f` on every item (rayon: `for_each`).
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        drive(self.into_par(), &ForEachConsumer { f });
    }

    /// Runs `op` on every item with a scratch value made by `init` once
    /// per pool chunk (rayon: `for_each_init`, which makes one per job).
    fn for_each_init<S, Init, F>(self, init: Init, op: F)
    where
        Init: Fn() -> S + Sync + Send,
        F: Fn(&mut S, Self::Item) + Sync + Send,
    {
        drive(self.into_par(), &ForEachInitConsumer { init, op });
    }

    /// Sums the items (rayon: `sum`).
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        drive(self.into_par(), &SumConsumer(PhantomData))
    }

    /// Counts the items (rayon: `count`).
    fn count(self) -> usize {
        drive(self.into_par(), &CountConsumer)
    }

    /// Maximum item (rayon: `max`).
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        drive(self.into_par(), &MaxConsumer)
    }

    /// Minimum item (rayon: `min`).
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        drive(self.into_par(), &MinConsumer)
    }

    /// Reduces with an identity-producing closure — rayon's signature,
    /// not [`Iterator::reduce`]'s. The operation must be associative
    /// and commutative with a true identity.
    fn reduce<Id, Op>(self, identity: Id, op: Op) -> Self::Item
    where
        Id: Fn() -> Self::Item + Sync + Send,
        Op: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        drive(self.into_par(), &ReduceConsumer { identity, op })
    }

    /// Folds into per-chunk accumulators — rayon's signature. Produces
    /// one accumulator per executed chunk (one per logical task under
    /// replay). As in rayon, what follows runs in the same chunk: a
    /// `map` after the fold sees each accumulator as its chunk ends, so
    /// an accumulator the `map` consumes is never held past its chunk.
    fn fold<A, Id, F>(
        self,
        identity: Id,
        fold_op: F,
    ) -> Par<Self::SrcItem, FoldX<Self::Xform, Id, F>>
    where
        A: Send,
        Id: Fn() -> A + Sync + Send,
        F: Fn(A, Self::Item) -> A + Sync + Send,
    {
        let p = self.into_par();
        Par {
            items: p.items,
            xform: FoldX {
                inner: p.xform,
                identity,
                f: fold_op,
            },
            sched: p.sched,
            min_len: p.min_len,
        }
    }

    /// Collects into any [`FromIterator`] collection (rayon: `collect`).
    /// Items arrive in their original order regardless of execution
    /// order or chunking.
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        drive(self.into_par(), &CollectConsumer)
            .into_iter()
            .collect()
    }
}

impl<T, X> ParallelIterator for Par<T, X>
where
    T: Send,
    X: ChunkXform<T> + Sync,
    X::Out: Send,
{
    type Item = X::Out;
    type SrcItem = T;
    type Xform = X;

    fn into_par(self) -> Par<T, X> {
        self
    }
}

impl<T, X> IntoIterator for Par<T, X>
where
    T: Send,
    X: ChunkXform<T> + Sync,
    X::Out: Send,
{
    type Item = X::Out;
    type IntoIter = std::vec::IntoIter<X::Out>;

    fn into_iter(self) -> Self::IntoIter {
        drive(self, &CollectConsumer).into_iter()
    }
}

/// Mirrors rayon's `IndexedParallelIterator` (every pipeline here is
/// backed by a materialized, indexable source).
pub trait IndexedParallelIterator: ParallelIterator {
    /// Sets the fewest source items one pool chunk may hold (rayon:
    /// `with_min_len`); a pipeline shorter than twice `min` runs inline
    /// on the calling thread. It only coarsens the split: under
    /// [`sched::with_schedule`] every item is still a task of its own.
    fn with_min_len(self, min: usize) -> Par<Self::SrcItem, Self::Xform> {
        Par {
            min_len: min.max(1),
            ..self.into_par()
        }
    }
}

impl<T, X> IndexedParallelIterator for Par<T, X>
where
    T: Send,
    X: ChunkXform<T> + Sync,
    X::Out: Send,
{
}

/// Conversion into a [`Par`] pipeline (rayon: `IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;
    /// The resulting pipeline type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Materializes `self` into a parallel pipeline.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: IntoIterator> IntoParallelIterator for T
where
    T::Item: Send,
{
    type Item = T::Item;
    type Iter = Par<T::Item, IdentityX>;

    fn into_par_iter(self) -> Par<T::Item, IdentityX> {
        Par::from_source(self.into_iter())
    }
}

/// `par_iter` on shared references (rayon: `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    /// Item type (typically `&'a T`).
    type Item: 'a + Send;
    /// The resulting pipeline type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Borrowing counterpart of [`IntoParallelIterator::into_par_iter`].
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoIterator,
    <&'a C as IntoIterator>::Item: Send,
{
    type Item = <&'a C as IntoIterator>::Item;
    type Iter = Par<Self::Item, IdentityX>;

    fn par_iter(&'a self) -> Par<Self::Item, IdentityX> {
        Par::from_source(self.into_iter())
    }
}

/// `par_iter_mut` on exclusive references (rayon:
/// `IntoParallelRefMutIterator`).
pub trait IntoParallelRefMutIterator<'a> {
    /// Item type (typically `&'a mut T`).
    type Item: 'a + Send;
    /// The resulting pipeline type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Mutably borrowing counterpart of
    /// [`IntoParallelIterator::into_par_iter`].
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefMutIterator<'a> for C
where
    &'a mut C: IntoIterator,
    <&'a mut C as IntoIterator>::Item: Send,
{
    type Item = <&'a mut C as IntoIterator>::Item;
    type Iter = Par<Self::Item, IdentityX>;

    fn par_iter_mut(&'a mut self) -> Par<Self::Item, IdentityX> {
        Par::from_source(self.into_iter())
    }
}

/// Parallel sorting on mutable slices (rayon: `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send + Sync> {
    /// Unstable sort (rayon: `par_sort_unstable`).
    fn par_sort_unstable(&mut self)
    where
        T: Ord;

    /// Unstable sort by comparator (rayon: `par_sort_unstable_by`).
    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync;

    /// Unstable sort by key (rayon: `par_sort_unstable_by_key`).
    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync;
}

impl<T: Send + Sync> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        par_sort_impl(self, T::cmp);
    }

    fn par_sort_unstable_by<F>(&mut self, compare: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync,
    {
        par_sort_impl(self, compare);
    }

    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        par_sort_impl(self, |a, b| key(a).cmp(&key(b)));
    }
}

/// In-place parallel sort: `select_nth_unstable_by` cuts the slice into
/// one part per executor, every element of a part no greater than any
/// of the next, and the pool sorts the parts. A total order therefore
/// gives the same result for any thread count.
fn par_sort_impl<T, F>(data: &mut [T], compare: F)
where
    T: Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = data.len();
    let threads = pool::effective_threads();
    if sched::is_scheduled() || threads <= 1 || n < MIN_PAR_SORT {
        data.sort_unstable_by(compare);
        return;
    }
    let mut parts = Vec::with_capacity(threads);
    let mut rest = data;
    for k in 1..threads {
        let cut = n * k / threads - (n - rest.len());
        rest.select_nth_unstable_by(cut, &compare);
        let (part, tail) = rest.split_at_mut(cut);
        parts.push(part);
        rest = tail;
    }
    parts.push(rest);
    pool::run(parts, |_, part| part.sort_unstable_by(&compare));
}

/// The number of logical executors parallel work may currently use:
/// the configured limit ([`configure_threads`] / `ThreadPool::install`)
/// or, unlimited, the host's available parallelism.
pub fn current_num_threads() -> usize {
    pool::effective_threads()
}

/// Error type of [`ThreadPoolBuilder::build`] (never produced).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a thread count for pools built from this builder.
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds a pool handle; never fails.
    ///
    /// # Errors
    /// Never returns `Err`; the `Result` only mirrors rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            current_num_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A handle applying a thread limit to the process-global pool.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Thread count this pool was built with.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `op` with this pool's thread limit installed process-wide,
    /// restoring the previous limit afterwards. Parallel work started
    /// by `op` (on any thread) uses at most this many executors.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        pool::install_limit(self.num_threads, op)
    }
}

/// The rayon prelude: every trait needed for method resolution.
pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_sum_matches_sequential() {
        let s: u64 = (0u64..100).into_par_iter().map(|x| x * x).sum();
        assert_eq!(s, (0u64..100).map(|x| x * x).sum());
    }

    #[test]
    fn fold_then_reduce_uses_rayon_signatures() {
        let (a, b) = (0u64..10)
            .into_par_iter()
            .fold(|| (0u64, 0u64), |(s, c), x| (s + x, c + 1))
            .reduce(|| (0, 0), |x, y| (x.0 + y.0, x.1 + y.1));
        assert_eq!((a, b), (45, 10));
    }

    #[test]
    fn ref_and_mut_iteration() {
        let mut v = vec![3u32, 1, 2];
        v.par_iter_mut().for_each(|x| *x *= 10);
        assert_eq!(v.par_iter().copied().max(), Some(30));
    }

    #[test]
    fn zip_and_enumerate() {
        let a = [1u32, 2, 3];
        let b = [10u32, 20, 30];
        let pairs: Vec<(usize, u32)> = a
            .par_iter()
            .zip(b.par_iter())
            .enumerate()
            .map(|(i, (x, y))| (i, x + y))
            .collect();
        assert_eq!(pairs, vec![(0, 11), (1, 22), (2, 33)]);
    }

    #[test]
    fn filter_and_flat_map() {
        let v: Vec<u32> = (0..10)
            .into_par_iter()
            .filter(|x| x % 2 == 0)
            .flat_map_iter(|x| [x, x + 100])
            .collect();
        assert_eq!(v, vec![0, 100, 2, 102, 4, 104, 6, 106, 8, 108]);
    }

    #[test]
    fn par_sort_variants() {
        let mut v = vec![5, 3, 9, 1];
        v.par_sort_unstable();
        assert_eq!(v, vec![1, 3, 5, 9]);
        v.par_sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(v, vec![9, 5, 3, 1]);
    }

    #[test]
    fn par_sort_matches_sequential_at_every_thread_count() {
        let _g = pool::limit_lock();
        for n in [MIN_PAR_SORT - 1, MIN_PAR_SORT, MIN_PAR_SORT + 1] {
            let inputs: [Vec<u64>; 4] = [
                vec![7; n],
                (0..n as u64).collect(),
                (0..n as u64).rev().collect(),
                (0..n as u64).map(|i| i.wrapping_mul(0x9E37) % 5).collect(),
            ];
            for input in inputs {
                let mut up = input.clone();
                up.sort_unstable();
                let down: Vec<u64> = up.iter().rev().copied().collect();
                for threads in 1..=4 {
                    let pool = ThreadPoolBuilder::new().num_threads(threads).build();
                    pool.expect("pool").install(|| {
                        let mut v = input.clone();
                        v.par_sort_unstable();
                        assert_eq!(v, up, "n = {n}, {threads} threads");
                        v.par_sort_unstable_by(|a, b| b.cmp(a));
                        assert_eq!(v, down, "n = {n}, {threads} threads");
                        v.clone_from(&input);
                        v.par_sort_unstable_by_key(|&x| std::cmp::Reverse(x));
                        assert_eq!(v, down, "n = {n}, {threads} threads");
                    });
                }
            }
        }
    }

    #[test]
    fn parallel_terminals_match_sequential_on_the_pool() {
        let _g = pool::limit_lock();
        let pool = ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        pool.install(|| {
            let s: u64 = (0u64..10_000).into_par_iter().map(|x| x * 3).sum();
            assert_eq!(s, (0u64..10_000).map(|x| x * 3).sum());
            let collected: Vec<u32> = (0u32..5_000).into_par_iter().map(|x| x + 1).collect();
            assert_eq!(collected, (1u32..=5_000).collect::<Vec<_>>());
            let m = (0i64..2_048).into_par_iter().map(|x| -x).min();
            assert_eq!(m, Some(-2_047));
        });
    }

    #[test]
    fn zero_length_pipelines_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(empty.par_iter().copied().sum::<u32>(), 0);
        assert_eq!(empty.par_iter().count(), 0);
        assert_eq!(empty.par_iter().max(), None);
        let collected: Vec<u32> = empty.par_iter().copied().collect();
        assert!(collected.is_empty());
        let folded = empty
            .par_iter()
            .fold(|| 0u32, |a, x| a + x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(folded, 0);
    }

    #[test]
    fn nested_parallel_for_inside_a_task() {
        let _g = pool::limit_lock();
        let pool = ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        pool.install(|| {
            let total: u64 = (0u64..64)
                .into_par_iter()
                .map(|x| (0u64..64).into_par_iter().map(|y| x + y).sum::<u64>())
                .sum();
            let want: u64 = (0u64..64)
                .map(|x| (0u64..64).map(|y| x + y).sum::<u64>())
                .sum();
            assert_eq!(total, want);
        });
    }

    #[test]
    fn scheduled_enumerate_keeps_original_indices() {
        let v: Vec<u32> = (0..64).collect();
        let (pairs, report) = sched::with_schedule(3, || {
            v.par_iter()
                .enumerate()
                .map(|(i, &x)| (i, x))
                .collect::<Vec<_>>()
        });
        assert!(report.is_clean());
        assert_eq!(report.regions, 1);
        // collect() restores original order, and every index matches.
        assert_eq!(
            pairs,
            (0u32..64).map(|x| (x as usize, x)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scheduled_min_len_keeps_one_task_per_item() {
        let v: Vec<u32> = (0..64).collect();
        let shared = [0u8; 1];
        let (pairs, report) = sched::with_schedule(3, || {
            v.par_iter()
                .with_min_len(64)
                .enumerate()
                .map(|(i, &x)| {
                    sched::log_write(&shared, "shared");
                    (i, x)
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(report.regions, 1);
        assert_eq!(
            pairs,
            (0u32..64).map(|x| (x as usize, x)).collect::<Vec<_>>()
        );
        // Merged into one chunk-sized task, the 64 writes to one byte
        // would never conflict; as 64 tasks, every pair does.
        assert!(!report.is_clean(), "with_min_len merged replay tasks");
    }

    #[test]
    fn chunk_count_follows_the_grain() {
        // Off the pool, or too short for two chunks: inline.
        assert_eq!(chunk_count(1 << 20, 1, 0), 1);
        assert_eq!(chunk_count(MIN_PAR_ITEMS - 1, 4, 0), 1);
        assert_eq!(chunk_count(512, 2, 1024), 0);
        // A few heavy items are still cut finely enough to balance.
        assert_eq!(chunk_count(64, 2, 0), 8);
        assert_eq!(chunk_count(40, 4, 0), 16);
        // Large pipelines: capped per executor, bounded by the grain.
        assert_eq!(chunk_count(1 << 18, 2, 0), 2 * CHUNKS_PER_THREAD);
        assert_eq!(chunk_count(1 << 18, 2, 1 << 12), 64);
        assert_eq!(chunk_count(4096, 2, 1024), 4);
    }

    #[test]
    fn split_chunks_keeps_order() {
        let chunks = split_chunks((0..10u32).collect(), 4);
        assert_eq!(chunks, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
        assert!(split_chunks(Vec::<u32>::new(), 4).is_empty());
    }

    #[test]
    fn for_each_init_makes_one_scratch_per_chunk() {
        use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
        let _g = pool::limit_lock();
        let pool = ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        pool.install(|| {
            let (inits, sum) = (AtomicUsize::new(0), AtomicU64::new(0));
            (0u64..10_000)
                .into_par_iter()
                .with_min_len(1024)
                .for_each_init(
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        0u64
                    },
                    |seen, x| {
                        *seen += 1;
                        sum.fetch_add(x, Ordering::Relaxed);
                    },
                );
            assert_eq!(sum.into_inner(), (0u64..10_000).sum());
            let inits = inits.into_inner();
            assert!(
                (1..=10_000 / 1024).contains(&inits),
                "{inits} scratch values"
            );
        });
    }

    /// A fold's accumulator ends inside its own chunk: with a `map` that
    /// consumes it, no more are alive at once than there are executors.
    #[test]
    fn fold_states_end_inside_their_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct State<'a> {
            live: &'a AtomicUsize,
            sum: u64,
        }
        impl Drop for State<'_> {
            fn drop(&mut self) {
                self.live.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let _g = pool::limit_lock();
        for threads in 1..=4 {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                let (live, peak, made) = (
                    AtomicUsize::new(0),
                    AtomicUsize::new(0),
                    AtomicUsize::new(0),
                );
                let sum: u64 = (0u64..100_000)
                    .into_par_iter()
                    .with_min_len(256)
                    .fold(
                        || {
                            made.fetch_add(1, Ordering::Relaxed);
                            let now = live.fetch_add(1, Ordering::Relaxed) + 1;
                            peak.fetch_max(now, Ordering::Relaxed);
                            State {
                                live: &live,
                                sum: 0,
                            }
                        },
                        |mut s, x| {
                            s.sum += x;
                            s
                        },
                    )
                    .map(|s| s.sum)
                    .sum();
                assert_eq!(sum, (0u64..100_000).sum(), "{threads} threads");
                assert_eq!(live.into_inner(), 0, "{threads} threads");
                let (peak, made) = (peak.into_inner(), made.into_inner());
                assert!(peak <= threads, "{peak} states live on {threads} threads");
                assert!(threads == 1 || made > threads, "{made} chunks");
            });
        }
    }

    #[test]
    fn with_min_len_matches_sequential_on_the_pool() {
        let _g = pool::limit_lock();
        let pool = ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        pool.install(|| {
            for grain in [1, 7, 1024, 1 << 20] {
                let s: u64 = (0u64..10_000)
                    .into_par_iter()
                    .with_min_len(grain)
                    .map(|x| x * 3)
                    .sum();
                assert_eq!(s, (0u64..10_000).map(|x| x * 3).sum(), "grain {grain}");
                let idx: Vec<usize> = (0u32..3_000)
                    .into_par_iter()
                    .with_min_len(grain)
                    .enumerate()
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(idx, (0..3_000).collect::<Vec<_>>(), "grain {grain}");
            }
        });
    }

    #[test]
    fn scheduled_zip_sides_stay_aligned() {
        let a: Vec<u32> = (0..50).collect();
        let b: Vec<u32> = (100..150).collect();
        let (ok, report) = sched::with_schedule(7, || {
            a.par_iter()
                .zip(b.par_iter())
                .map(|(&x, &y)| y - x == 100)
                .reduce(|| true, |p, q| p && q)
        });
        assert!(ok, "zipped pairs must stay aligned under a schedule");
        assert!(report.is_clean());
    }

    #[test]
    fn scheduled_sum_matches_unscheduled() {
        let want: u64 = (0u64..100).map(|x| x * x).sum();
        for seed in [1, 2, 3] {
            let (got, _) = sched::with_schedule(seed, || {
                (0u64..100).into_par_iter().map(|x| x * x).sum::<u64>()
            });
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn schedules_actually_permute_execution_order() {
        let seen = std::sync::Mutex::new(Vec::new());
        let ((), _) = sched::with_schedule(5, || {
            (0u32..32).into_par_iter().for_each(|x| {
                seen.lock().expect("poisoned").push(x);
            });
        });
        let order = seen.into_inner().expect("poisoned");
        let identity: Vec<u32> = (0..32).collect();
        assert_ne!(order, identity, "seeded schedule should reorder tasks");
        let mut sorted = order;
        sorted.sort_unstable();
        assert_eq!(sorted, identity, "every task runs exactly once");
    }

    #[test]
    fn pool_installs_a_thread_limit() {
        let _g = pool::limit_lock();
        let pool = ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        assert_eq!(pool.current_num_threads(), 4);
        assert_eq!(
            pool.install(|| {
                assert_eq!(current_num_threads(), 4);
                7
            }),
            7
        );
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn worker_panic_reaches_the_caller_and_pool_survives() {
        let _g = pool::limit_lock();
        let pool = ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        pool.install(|| {
            let r = std::panic::catch_unwind(|| {
                (0u32..4_096).into_par_iter().for_each(|x| {
                    assert!(x != 2_000, "planted task panic");
                });
            });
            assert!(r.is_err(), "panic must propagate to the driving thread");
            // The pool keeps working after a panicked region.
            let s: u64 = (0u64..4_096).into_par_iter().sum();
            assert_eq!(s, 4_096 * 4_095 / 2);
        });
    }
}
