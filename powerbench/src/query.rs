//! Monitor requests whose replies carry their simulated arrival time.
//!
//! [`fluxpm_monitor::MonitorQuery`] fills a handle the client reads
//! later, which hides when the reply arrived. The benchmark needs that
//! instant for poll round trips and sample ages, so it sends the same
//! typed [`MonitorRequest`] over the same RPC path and stamps the reply
//! in the completion callback.

use fluxpm_flux::{FluxEngine, Protocol, Rank, World};
use fluxpm_monitor::{MonitorReply, MonitorRequest};
use std::cell::RefCell;
use std::rc::Rc;

/// A reply and the simulated µs it arrived at.
pub type Stamped = (u64, Result<MonitorReply, String>);

/// Filled by the RPC layer when the reply (or an error) arrives.
pub type Pending = Rc<RefCell<Option<Stamped>>>;

/// Send `req` to `to` with the stack's default deadline and retry.
pub fn send(world: &mut World, eng: &mut FluxEngine, to: Rank, req: MonitorRequest) -> Pending {
    let slot: Pending = Rc::new(RefCell::new(None));
    let out = Rc::clone(&slot);
    world
        .rpc(to, req.topic(), req.encode())
        .send(eng, move |_, eng, resp| {
            let result = match (&resp.error, MonitorReply::decode(resp)) {
                (Some(e), _) => Err(e.clone()),
                (None, Ok(reply)) => Ok(reply),
                (None, Err(e)) => Err(e.reason),
            };
            *out.borrow_mut() = Some((eng.now().as_micros(), result));
        });
    slot
}
