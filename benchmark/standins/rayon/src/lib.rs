//! Offline stand-in for `rayon`: the one shape the program uses,
//! `par_chunks[_mut](n).zip(..).for_each(f)`, as a fork/join over scoped
//! std threads.
//!
//! The chunk sequence is cut into one contiguous run per available core;
//! the caller's thread takes the first run and scoped threads take the
//! rest. Chunk boundaries are the caller's, so results are bit-identical
//! to the real crate. What differs is scheduling: no persistent pool and
//! no work stealing, so each parallel call pays a thread spawn per extra
//! core (tens of microseconds) where rayon pays a wake-up.

use std::num::NonZeroUsize;

pub mod prelude {
    pub use crate::{IndexedParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// A splittable sequence of known length, the subset of rayon's trait of
/// the same name that the program calls.
pub trait IndexedParallelIterator: Sized + Send {
    type Item;
    type Seq: Iterator<Item = Self::Item>;

    fn len(&self) -> usize;
    /// Splits into the first `index` items and the rest.
    fn split_at(self, index: usize) -> (Self, Self);
    fn into_seq(self) -> Self::Seq;

    fn zip<B: IndexedParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let parts = cores.min(self.len());
        if parts <= 1 {
            return self.into_seq().for_each(f);
        }
        let f = &f;
        std::thread::scope(|scope| {
            let mut rest = self;
            let mut mine = None;
            for part in 0..parts {
                let remaining_parts = parts - part;
                let take = rest.len().div_ceil(remaining_parts);
                let (head, tail) = rest.split_at(take);
                rest = tail;
                if part == 0 {
                    mine = Some(head);
                } else {
                    scope.spawn(move || head.into_seq().for_each(f));
                }
            }
            if let Some(head) = mine {
                head.into_seq().for_each(f);
            }
            // Leaving the scope joins the spawned threads and re-raises
            // a panic from any of them.
        });
    }
}

pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        Chunks { slice: self, chunk_size }
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ChunksMut { slice: self, chunk_size }
    }
}

pub struct Chunks<'a, T> {
    slice: &'a [T],
    chunk_size: usize,
}

impl<'a, T: Sync> IndexedParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];
    type Seq = std::slice::Chunks<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk_size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.chunk_size).min(self.slice.len());
        let (a, b) = self.slice.split_at(mid);
        (
            Chunks { slice: a, chunk_size: self.chunk_size },
            Chunks { slice: b, chunk_size: self.chunk_size },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.chunks(self.chunk_size)
    }
}

pub struct ChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> IndexedParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    type Seq = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk_size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.chunk_size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(mid);
        (
            ChunksMut { slice: a, chunk_size: self.chunk_size },
            ChunksMut { slice: b, chunk_size: self.chunk_size },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.chunk_size)
    }
}

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: IndexedParallelIterator, B: IndexedParallelIterator> IndexedParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.a.split_at(index);
        let (b1, b2) = self.b.split_at(index);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }

    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn zipped_chunks_visit_every_element_once() {
        let mut dst = vec![0u32; 1000];
        let src: Vec<u32> = (0..1000).collect();
        dst.par_chunks_mut(7)
            .zip(src.par_chunks(7))
            .for_each(|(d, s)| d.iter_mut().zip(s).for_each(|(d, s)| *d += s + 1));
        assert!(dst.iter().zip(&src).all(|(d, s)| *d == s + 1));
    }
}
