use std::thread::Builder;

pub fn run_aside(f: impl FnOnce() + Send + 'static) {
    std::thread::spawn(f).join().unwrap();
}

pub fn big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        Builder::new()
            .stack_size(1 << 20)
            .spawn_scoped(scope, f)
            .unwrap()
            .join()
            .unwrap()
    })
}
