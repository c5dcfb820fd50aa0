//! Offline stand-in for `rayon`. The benchmark pins the scoring pool to one
//! thread, and the repository's contract is that results are bit-identical at
//! every thread count, so the parallel iterators here are the standard
//! sequential ones and `install` runs its closure on the calling thread.

pub mod prelude {
    /// `into_par_iter()` as the standard `into_iter()`.
    pub trait IntoParallelIterator: IntoIterator + Sized {
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }
    impl<I: IntoIterator> IntoParallelIterator for I {}

    /// `par_iter()` as the standard `iter()`.
    pub trait IntoParallelRefIterator<'a> {
        type Iter: Iterator;
        fn par_iter(&'a self) -> Self::Iter;
    }
    impl<'a, C: ?Sized + 'a> IntoParallelRefIterator<'a> for C
    where
        &'a C: IntoIterator,
    {
        type Iter = <&'a C as IntoIterator>::IntoIter;
        fn par_iter(&'a self) -> Self::Iter {
            self.into_iter()
        }
    }
}

/// Error type of [`ThreadPoolBuilder::build`]; never produced.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Records the requested size; starts no threads.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.num_threads.max(1) })
    }
}

/// A pool that runs everything on the caller's thread.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    pub fn install<R, F: FnOnce() -> R>(&self, op: F) -> R {
        op()
    }

    /// The size that was asked for, so gauges read as with the real crate.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}
