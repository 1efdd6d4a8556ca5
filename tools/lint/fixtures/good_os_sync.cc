// Fixture: nothing here may raise `os-sync` — concurrency is virtual (actors
// suspend, events order effects).
struct Actor {};
void block_on(Actor& a);
void handler(Actor& a) { block_on(a); }  // virtual blocking: fine
int plain_cache = 0;
