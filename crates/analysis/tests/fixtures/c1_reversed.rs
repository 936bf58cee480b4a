// Fixture: cache lock held while taking the pool lock (rule C1).
pub fn reversed(s: &Shared) {
    let map = s.map.lock().expect("cache");
    let state = s.state.lock().expect("pool");
    let _ = (map, state);
}
