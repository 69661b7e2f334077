//! The serving plane's frames, one inbox per receiving role.
//!
//! Every frame a role accepts is a variant of its inbox — [`ToRouter`],
//! [`ToReplica`], [`ToClient`] — and maps to its registry [`Tag`]. A role
//! receives with a set of its own inbox's frames and dispatches with an
//! exhaustive `match`; it sends only through the helper typed by the
//! target's inbox ([`to_router`], [`to_replica`], [`to_client`]). So a
//! frame the target never accepts does not compile, and a receive set
//! names only frames its role handles.

use crate::replica::ROUTER_RANK;
use bytes::Bytes;
use gbdt_cluster::{Comm, CommError, Tag};

/// Declares one inbox: its frames, each with the tag it travels under.
macro_rules! inbox {
    ($(#[$doc:meta])* $inbox:ident { $($(#[$fdoc:meta])* $frame:ident = $tag:ident,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $inbox {
            $($(#[$fdoc])* $frame,)+
        }

        impl $inbox {
            /// Every frame of this inbox.
            pub const ALL: &'static [$inbox] = &[$($inbox::$frame),+];
        }

        impl From<$inbox> for Tag {
            fn from(frame: $inbox) -> Tag {
                match frame {
                    $($inbox::$frame => Tag::$tag,)+
                }
            }
        }
    };
}

inbox! {
    /// Frames the router accepts.
    ToRouter {
        /// Client: a prediction request.
        Request = ServeRequest,
        /// Replica: scores for one routed request.
        Reply = ServeReply,
        /// Client: a model to version and broadcast.
        Publish = ServePublish,
        /// Replica: the version it seated.
        Ack = ServeAck,
        /// Replica: a heartbeat answer carrying its served version.
        HealthPong = ServeHealthPong,
        /// Replica: back from a crash, asking for the current model.
        Recover = ServeRecover,
        /// Client: no more requests.
        Stop = ServeStop,
    }
}

inbox! {
    /// Frames a replica accepts, all from the router.
    ToReplica {
        /// A request under its routing id.
        Route = ServeRoute,
        /// A model under its router-assigned version.
        Publish = ServePublish,
        /// A heartbeat.
        HealthPing = ServeHealthPing,
        /// The session is over.
        Stop = ServeStop,
    }
}

inbox! {
    /// Frames a client accepts, all from the router.
    ToClient {
        /// Scores or a refusal for one request, or a publish ack.
        Response = ServeResponse,
    }
}

/// Sends `frame` to the router.
pub fn to_router(comm: &Comm, frame: ToRouter, payload: Bytes) -> Result<(), CommError> {
    comm.send(ROUTER_RANK, frame.into(), payload)
}

/// Sends `frame` to the replica on rank `replica`.
pub fn to_replica(
    comm: &Comm,
    replica: usize,
    frame: ToReplica,
    payload: Bytes,
) -> Result<(), CommError> {
    comm.send(replica, frame.into(), payload)
}

/// Sends `frame` to the client on rank `client`.
pub fn to_client(
    comm: &Comm,
    client: usize,
    frame: ToClient,
    payload: Bytes,
) -> Result<(), CommError> {
    comm.send(client, frame.into(), payload)
}
