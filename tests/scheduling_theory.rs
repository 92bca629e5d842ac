//! Cross-validation of the scheduling-theory crate: response-time analysis
//! against the exact schedule simulator.

use event_sim::{SimDuration, SimTime};
use tasks::{response_time, simulate, PeriodicTask, TaskSet};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// A deterministic family of schedulable task sets with varying shapes.
fn task_set_family() -> Vec<TaskSet> {
    let mut sets = Vec::new();
    for (i, params) in [
        vec![(1u32, 1u64, 4u64), (2, 2, 8)],
        vec![(1, 1, 5), (2, 1, 10), (3, 2, 20)],
        vec![(1, 2, 10), (2, 3, 15), (3, 1, 30)],
        vec![(1, 1, 8), (2, 2, 8), (3, 3, 16)],
        vec![(1, 1, 3), (2, 1, 6), (3, 1, 12), (4, 1, 24)],
    ]
    .into_iter()
    .enumerate()
    {
        let tasks: Vec<PeriodicTask> = params
            .iter()
            .map(|&(id, c, t)| PeriodicTask::new(id + 10 * i as u32, ms(c), ms(t), ms(t)))
            .collect();
        sets.push(TaskSet::rate_monotonic(tasks).unwrap());
    }
    sets
}

#[test]
fn first_job_response_times_equal_rta_bounds() {
    // With synchronous release (zero offsets), the first job of each task
    // suffers the critical instant: simulation must match RTA exactly.
    for set in task_set_family() {
        let rta = response_time::analyze(&set).unwrap();
        assert!(rta.schedulable(), "family sets must be schedulable");
        let horizon = SimTime::ZERO + set.hyperperiod().unwrap() * 2;
        let trace = simulate(&set, horizon);
        for task in set.iter() {
            let first = trace
                .completions()
                .iter()
                .find(|c| c.task == task.id() && c.job == 0)
                .expect("first job completes");
            let bound = rta.response_for(task.id()).unwrap().wcrt.unwrap();
            assert_eq!(first.response_time(), bound, "task {}", task.id());
        }
    }
}

#[test]
fn no_deadline_misses_in_schedulable_sets() {
    for set in task_set_family() {
        let horizon = SimTime::ZERO + set.hyperperiod().unwrap() * 3;
        let trace = simulate(&set, horizon);
        assert_eq!(trace.periodic_misses().count(), 0);
    }
}

#[test]
fn trace_work_conservation() {
    // Over an exact number of hyperperiods with synchronous release, the
    // busy time equals the sum of all released jobs' WCETs.
    for set in task_set_family() {
        let hp = set.hyperperiod().unwrap();
        let horizon = SimTime::ZERO + hp * 2;
        let trace = simulate(&set, horizon);
        trace.validate().unwrap();
        let expected: u64 = set
            .iter()
            .map(|t| {
                let jobs = (hp * 2).div_duration(t.period());
                t.wcet().as_nanos() * jobs
            })
            .sum();
        assert_eq!(trace.busy_time().as_nanos(), expected);
    }
}
