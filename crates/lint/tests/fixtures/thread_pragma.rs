pub fn watchdog(f: impl FnOnce() + Send + 'static) {
    // lint:allow(no-thread-outside-par): fixture exercising the pragma path.
    std::thread::spawn(f);
}
