//! D04 corpus: exactly one ad-hoc thread spawn outside the allowlisted
//! parallelism layers. `WorkerPool::spawn` and `scope.spawn` are method calls
//! on owned types, not `std::thread` entry points, and must stay silent.

pub fn fan_out() {
    let handle = std::thread::spawn(|| 42);
    let _ = handle.join();
}

pub fn pool_reuse(pool: &WorkerPool, scope: &Scope) {
    let _ = WorkerPool::spawn(4);
    scope.spawn(|| {});
}
