//! The Sensor Manager (Figure 1): tracks live occupancy state, drives the
//! HVAC actuation of Policy 1, and pushes capture-time suppression down to
//! devices.

use std::collections::HashMap;

use tippers_ontology::Ontology;
use tippers_policy::{Effect, Timestamp, UserPreference};
use tippers_sensors::{BuildingSimulator, MacAddress, Observation, ObservationPayload};
use tippers_spatial::{SpaceId, SpatialModel};

/// A thermostat command produced by Policy 1's control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HvacCommand {
    /// The floor whose HVAC unit is addressed.
    pub floor: SpaceId,
    /// Target temperature, Fahrenheit (the paper's 70 °F).
    pub target_fahrenheit: f64,
    /// Whether the unit should run.
    pub active: bool,
}

/// Tracks per-room occupancy and produces actuation commands.
#[derive(Debug, Clone, Default)]
pub struct SensorManager {
    /// Last occupancy signal per room.
    occupancy: HashMap<SpaceId, (Timestamp, bool)>,
    /// How long an occupancy signal stays valid, seconds.
    staleness_secs: i64,
}

impl SensorManager {
    /// Creates a manager with a 15-minute occupancy staleness horizon.
    pub fn new() -> SensorManager {
        SensorManager {
            occupancy: HashMap::new(),
            staleness_secs: 900,
        }
    }

    /// Feeds one observation into the live state.
    pub fn observe(&mut self, obs: &Observation) {
        match &obs.payload {
            ObservationPayload::Motion { detected } => {
                self.occupancy.insert(obs.space, (obs.timestamp, *detected));
            }
            ObservationPayload::CameraFrame { occupant_count, .. } => {
                self.occupancy
                    .insert(obs.space, (obs.timestamp, *occupant_count > 0));
            }
            _ => {}
        }
    }

    /// Whether a room is known occupied at `now` (unknown/stale → `None`).
    pub fn room_occupied(&self, space: SpaceId, now: Timestamp) -> Option<bool> {
        let (t, occupied) = self.occupancy.get(&space)?;
        if now - *t > self.staleness_secs {
            None
        } else {
            Some(*occupied)
        }
    }

    /// Policy 1's control loop: "make a request to motion sensors in each
    /// room to determine whether the room is occupied … change the settings
    /// of the HVAC system" — one command per floor, active when any room on
    /// the floor is occupied.
    pub fn thermostat_commands(
        &self,
        model: &SpatialModel,
        floors: &[SpaceId],
        now: Timestamp,
    ) -> Vec<HvacCommand> {
        floors
            .iter()
            .map(|&floor| {
                let any_occupied = self
                    .occupancy
                    .iter()
                    .filter(|(space, _)| model.contains(floor, **space))
                    .any(|(_, (t, occ))| *occ && now - *t <= self.staleness_secs);
                HvacCommand {
                    floor,
                    target_fahrenheit: 70.0,
                    active: any_occupied,
                }
            })
            .collect()
    }

    /// MACs of users whose preferences deny *capture* of network data —
    /// these are pushed into device settings so the data never leaves the
    /// sensor (the *where = device* enforcement point of §V.C).
    pub fn capture_suppression(
        ontology: &Ontology,
        preferences: &[UserPreference],
        mac_of: &HashMap<tippers_policy::UserId, MacAddress>,
    ) -> Vec<MacAddress> {
        let c = ontology.concepts();
        preferences
            .iter()
            .filter(|p| p.effect == Effect::Deny)
            // Unconditional, building-wide location/network denials only:
            // a conditional, per-service, per-purpose or per-space
            // preference cannot be enforced by a static device list and
            // stays BMS-side, where the request path enforces it.
            .filter(|p| {
                p.scope.condition.is_always()
                    && p.scope.service.is_none()
                    && p.scope.purpose.is_none()
                    && p.scope.space.is_none()
            })
            .filter(|p| match p.scope.data {
                None => true,
                Some(d) => {
                    ontology.data.is_a(c.wifi_association, d)
                        || ontology.data.is_a(c.bluetooth_sighting, d)
                        || ontology.data.is_a(d, c.location)
                }
            })
            .filter_map(|p| mac_of.get(&p.user).copied())
            .collect()
    }

    /// Pushes suppression lists to every network device of a simulator.
    pub fn sync_suppression(
        ontology: &Ontology,
        suppressed: &[MacAddress],
        sim: &mut BuildingSimulator,
    ) {
        let c = ontology.concepts();
        let targets: Vec<_> = sim
            .devices()
            .of_class(c.wifi_ap)
            .into_iter()
            .chain(sim.devices().of_class(c.ble_beacon))
            .collect();
        for id in targets {
            if let Some(device) = sim.devices_mut().get_mut(id) {
                device.settings.suppressed_macs = suppressed.to_vec();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tippers_policy::{PreferenceId, PreferenceScope, UserId};
    use tippers_sensors::DeviceId;
    use tippers_spatial::fixtures::dbh;

    fn motion(space: SpaceId, t: Timestamp, detected: bool) -> Observation {
        Observation {
            device: DeviceId(0),
            timestamp: t,
            space,
            payload: ObservationPayload::Motion { detected },
            subject: None,
        }
    }

    #[test]
    fn occupancy_tracking_and_staleness() {
        let d = dbh();
        let mut sm = SensorManager::new();
        let t0 = Timestamp::at(0, 9, 0);
        sm.observe(&motion(d.offices[0], t0, true));
        assert_eq!(sm.room_occupied(d.offices[0], t0 + 60), Some(true));
        assert_eq!(sm.room_occupied(d.offices[0], t0 + 1000), None);
        assert_eq!(sm.room_occupied(d.offices[1], t0), None);
        sm.observe(&motion(d.offices[0], t0 + 120, false));
        assert_eq!(sm.room_occupied(d.offices[0], t0 + 130), Some(false));
    }

    #[test]
    fn thermostat_targets_occupied_floors_only() {
        let d = dbh();
        let mut sm = SensorManager::new();
        let t0 = Timestamp::at(0, 9, 0);
        // offices[0] is on floor 0.
        sm.observe(&motion(d.offices[0], t0, true));
        let cmds = sm.thermostat_commands(&d.model, &d.floors, t0 + 60);
        assert_eq!(cmds.len(), 6);
        assert!(cmds[0].active);
        assert!((cmds[0].target_fahrenheit - 70.0).abs() < 1e-9);
        assert!(cmds[1..].iter().all(|c| !c.active));
    }

    #[test]
    fn capture_suppression_picks_unconditional_location_denials() {
        let ont = Ontology::standard();
        let c = ont.concepts();
        let mac1 = MacAddress::for_user(1);
        let mac2 = MacAddress::for_user(2);
        let mac_of: HashMap<UserId, MacAddress> =
            [(UserId(1), mac1), (UserId(2), mac2)].into_iter().collect();
        let prefs = vec![
            // Unconditional location deny → suppress.
            UserPreference::new(
                PreferenceId(1),
                UserId(1),
                PreferenceScope {
                    data: Some(c.location),
                    ..Default::default()
                },
                Effect::Deny,
            ),
            // Conditional (after-hours) deny → stays BMS-side.
            UserPreference::new(
                PreferenceId(2),
                UserId(2),
                PreferenceScope {
                    data: Some(c.location),
                    condition: tippers_policy::Condition::during(
                        tippers_policy::TimeWindow::after_hours(),
                    ),
                    ..Default::default()
                },
                Effect::Deny,
            ),
        ];
        let suppressed = SensorManager::capture_suppression(&ont, &prefs, &mac_of);
        assert_eq!(suppressed, vec![mac1]);
    }

    #[test]
    fn purpose_and_room_scoped_denials_leave_capture_on() {
        let ont = Ontology::standard();
        let c = ont.concepts();
        let d = dbh();
        let mac_of: HashMap<UserId, MacAddress> = (1..=3)
            .map(|u| (UserId(u), MacAddress::for_user(u)))
            .collect();
        let location_deny = |user, purpose, space| {
            UserPreference::new(
                PreferenceId(user),
                UserId(user),
                PreferenceScope {
                    data: Some(c.location),
                    purpose,
                    space,
                    ..Default::default()
                },
                Effect::Deny,
            )
        };
        let prefs = vec![
            // Denied only in one office: capture elsewhere is allowed.
            location_deny(1, None, Some(d.offices[0])),
            // Denied only for analytics: other purposes may use it.
            location_deny(2, Some(c.analytics), None),
            // Unscoped: the device never reports the MAC.
            location_deny(3, None, None),
        ];
        let suppressed = SensorManager::capture_suppression(&ont, &prefs, &mac_of);
        assert_eq!(suppressed, vec![MacAddress::for_user(3)]);
    }
}
