/// Decision code asks how many threads exist but starts none itself;
/// parallel work goes through the pool in `crates/par`.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_start_threads() {
        let h = std::thread::spawn(|| 1 + 1);
        assert_eq!(h.join().unwrap(), 2);
        std::thread::scope(|s| {
            s.spawn(|| ());
        });
    }
}
